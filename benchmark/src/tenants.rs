//! `cloudkit_tenants_fit`: many small per-user stores behind the CloudKit
//! service layer, two clients, a buffer pool that holds the whole file.
//!
//! Client `i` owns the users `≡ i (mod 2)`, so the two op streams never
//! touch the same store and each client checks its results against its
//! own half of the model without locking. What the clients share is the
//! database: one conflict shard (every key starts with `"ck"`), the
//! group-commit batcher and the store lock.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::clock::now;

use cloudkit_sim::{CloudKit, CloudKitConfig, RecordData, SyncToken};
use record_layer::store::StoredRecord;
use rl_fdb::tuple::TupleElement;
use rl_fdb::Database;
use rl_message::Value;

use crate::rng::{class_deck, Rng, Scatter, Zipf};
use crate::spec::Rounds;
use crate::trace::Tracer;
use crate::workload::{
    data_dir, open_database, reopen_database, report_failed_op, run_txn, timed_op, Designated,
    Engine, Env, MessageSample, Round,
};

pub const CLASSES: [&str; 5] = ["load", "sync", "zone_record_count", "save", "replace"];
pub const LOAD: usize = 0;
pub const SYNC: usize = 1;
pub const ZONE_COUNT: usize = 2;
/// Overwrite one existing record.
pub const SAVE: usize = 3;
/// Delete a zone's oldest record and add a new one, in one transaction.
pub const REPLACE: usize = 4;

pub const CLIENTS: usize = 2;
pub const ZONES: usize = 2;
pub const APP: &str = "app";
/// Changes a new device asks for in one sync call.
pub const SYNC_LIMIT: usize = 20;
pub const ZIPF_S: f64 = 0.99;
/// Bytes of the unindexed body field of every record.
const BODY_BYTES: usize = 64;

#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub name: &'static str,
    pub pool_pages: usize,
    pub users: usize,
    pub records_per_zone: usize,
    /// Weight per class, in [`CLASSES`] order.
    pub mix: [u32; 5],
    pub ops_per_round: usize,
    pub rounds: Rounds,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantOp {
    pub class: u8,
    pub user: u32,
    pub zone: u8,
    /// Which of the zone's live records, as a position in change order.
    pub pick: u16,
}

/// The seeded op stream of one client.
#[derive(Debug, Clone)]
pub struct TenantGen {
    spec: TenantSpec,
    seed: u64,
    client: usize,
    zipf: Zipf,
    scatter: Scatter,
}

impl TenantGen {
    pub fn new(spec: &TenantSpec, seed: u64, client: usize) -> TenantGen {
        let own = spec.users / CLIENTS;
        TenantGen {
            spec: spec.clone(),
            seed,
            client,
            zipf: Zipf::new(own, ZIPF_S),
            scatter: Scatter::new(own, &mut Rng::derive(seed, 1_000 + client as u64)),
        }
    }

    pub fn round(&self, round: u64) -> Vec<TenantOp> {
        let mut rng = Rng::derive(self.seed, (1 + round) * CLIENTS as u64 + self.client as u64);
        class_deck(&self.spec.mix, self.spec.ops_per_round / CLIENTS, &mut rng)
            .into_iter()
            .map(|class| {
                let own = self.scatter.id(self.zipf.sample(&mut rng)) as usize;
                TenantOp {
                    class,
                    user: (own * CLIENTS + self.client) as u32,
                    zone: rng.below(ZONES as u64) as u8,
                    pick: rng.below(self.spec.records_per_zone as u64) as u16,
                }
            })
            .collect()
    }
}

fn zone_name(z: u8) -> String {
    format!("z{z}")
}

fn record_name(n: u32) -> String {
    format!("r{n:06}")
}

/// A record's fields are a function of where it lives and how often it
/// was rewritten, so the model keeps two integers per record.
fn record_data(user: u32, zone: u8, name: u32, rev: u32) -> RecordData {
    let body: String = (0..BODY_BYTES)
        .map(|i| {
            (b'a' + ((user as usize + name as usize * 7 + rev as usize * 3 + i) % 26) as u8) as char
        })
        .collect();
    RecordData::new(zone_name(zone), record_name(name))
        .string_field("field0", format!("t{:02}", (name + rev) % 50))
        .string_field("field1", body)
        .int_field("num0", i64::from(rev))
}

/// Every field the client set reads back as it was written.
fn record_matches(stored: &StoredRecord, want: &RecordData) -> bool {
    let m = &stored.message;
    want.string_fields
        .iter()
        .all(|(k, v)| m.get(k).and_then(Value::as_str) == Some(v.as_str()))
        && want
            .int_fields
            .iter()
            .all(|(k, v)| m.get(k).and_then(Value::as_i64) == Some(*v))
}

/// Bytes of field values the client hands over in one `RecordData`.
fn user_bytes(d: &RecordData) -> u64 {
    (d.zone.len()
        + d.name.len()
        + d.string_fields.iter().map(|(_, v)| v.len()).sum::<usize>()
        + 8 * d.int_fields.len()) as u64
}

/// One zone of one user: `(name, rev)` in change order, oldest first —
/// exactly what a sync from the start must return.
type ZoneModel = VecDeque<(u32, u32)>;

#[derive(Debug, Clone)]
struct UserModel {
    zones: Vec<ZoneModel>,
    next_name: u32,
}

struct Client {
    gen: TenantGen,
    /// Users of this client, indexed by `user / CLIENTS`.
    users: Vec<UserModel>,
    tracer: Tracer,
}

pub struct TenantEnv {
    spec: TenantSpec,
    db: Database,
    ck: CloudKit,
    dir: PathBuf,
    clients: Vec<Client>,
    setup_ns: u64,
}

fn config() -> CloudKitConfig {
    CloudKitConfig {
        indexed_fields: vec!["field0".into()],
        quota_index: true,
    }
}

impl TenantEnv {
    pub fn setup(spec: &TenantSpec, seed: u64, out_dir: &Path, nth: usize, epoch: Instant) -> Self {
        let dir = data_dir(out_dir, spec.name, nth);
        let engine = Engine::Paged {
            pool_pages: spec.pool_pages,
        };
        let db = open_database(engine, &dir);
        let ck = CloudKit::new(&db, &config());
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|c| Client {
                gen: TenantGen::new(spec, seed, c),
                users: Vec::with_capacity(spec.users / CLIENTS),
                // Op ids of the two clients must not collide.
                tracer: Tracer::new(epoch, (c as u64) << 40),
            })
            .collect();
        let per_zone = spec.records_per_zone as u32;
        let t0 = now();
        // Users arrive in a shuffled order, as tenants do, not in key
        // order (see `ItemEnv::setup`).
        let mut users: Vec<u32> = (0..spec.users as u32).collect();
        Rng::derive(seed, u64::MAX).shuffle(&mut users);
        for &user in &users {
            record_layer::run(&db, |tx| {
                for zone in 0..ZONES as u8 {
                    for name in 0..per_zone {
                        ck.save(tx, i64::from(user), APP, &record_data(user, zone, name, 0))?;
                    }
                }
                Ok(())
            })
            .expect("population load");
        }
        let setup_ns = t0.elapsed().as_nanos() as u64;
        for user in 0..spec.users {
            clients[user % CLIENTS].users.push(UserModel {
                zones: vec![(0..per_zone).map(|n| (n, 0)).collect(); ZONES],
                next_name: per_zone,
            });
        }
        TenantEnv {
            spec: spec.clone(),
            db,
            ck,
            dir,
            clients,
            setup_ns,
        }
    }
}

/// What the two clients share.
#[derive(Clone, Copy)]
struct Shared<'a> {
    db: &'a Database,
    ck: &'a CloudKit,
    dir: &'a Path,
    name: &'static str,
}

impl Client {
    fn run(&mut self, shared: &Shared<'_>, round: u64, traced: bool) -> Round {
        let ops = self.gen.round(round);
        let mut out = Round::new(CLASSES.len());
        self.tracer.set_on(traced);
        for op in &ops {
            self.exec(shared, op, &mut out);
        }
        out.spans = self.tracer.take_spans();
        out
    }

    fn exec(&mut self, shared: &Shared<'_>, op: &TenantOp, round: &mut Round) {
        let Shared { db, ck, dir, name } = *shared;
        let class = op.class as usize;
        let tracer = &mut self.tracer;
        let user = &mut self.users[op.user as usize / CLIENTS];
        let zone = &mut user.zones[op.zone as usize];
        let uid = i64::from(op.user);
        let zname = zone_name(op.zone);
        let pick = op.pick as usize % zone.len();
        let mut retries = 0;
        round.attempted += 1;
        let ok = match class {
            LOAD => {
                let (rname, rev) = zone[pick];
                let rname_s = record_name(rname);
                let (got, ns) = timed_op(db, tracer, CLASSES[class], |tr| {
                    run_txn(db, tr, false, &mut retries, |tx, tr| {
                        let s = tr.begin("cloudkit.load");
                        let rec = ck.load(tx, uid, APP, &zname, &rname_s);
                        tr.end(s);
                        rec
                    })
                });
                got.is_some_and(|(rec, trace)| {
                    round.record(class, ns, 1, &trace);
                    let want = record_data(op.user, op.zone, rname, rev);
                    rec.is_some_and(|r| record_matches(&r, &want))
                })
            }
            SYNC => {
                let (got, ns) = timed_op(db, tracer, CLASSES[class], |tr| {
                    run_txn(db, tr, false, &mut retries, |tx, tr| {
                        let s = tr.begin("cloudkit.sync");
                        let changes =
                            ck.sync(tx, uid, APP, &zname, &SyncToken::start(), SYNC_LIMIT);
                        tr.end(s);
                        changes
                    })
                });
                got.is_some_and(|((changes, _token), trace)| {
                    round.record(class, ns, changes.len() as u64, &trace);
                    let got: Vec<&str> = changes
                        .iter()
                        .filter_map(|c| c.primary_key.get(1).and_then(TupleElement::as_str))
                        .collect();
                    let want: Vec<String> = zone
                        .iter()
                        .take(SYNC_LIMIT)
                        .map(|&(n, _)| record_name(n))
                        .collect();
                    got == want
                })
            }
            ZONE_COUNT => {
                let (got, ns) = timed_op(db, tracer, CLASSES[class], |tr| {
                    run_txn(db, tr, false, &mut retries, |tx, tr| {
                        let s = tr.begin("cloudkit.zone_count");
                        let n = ck.zone_record_count(tx, uid, APP, &zname);
                        tr.end(s);
                        n
                    })
                });
                got.is_some_and(|(n, trace)| {
                    round.record(class, ns, 1, &trace);
                    n == zone.len() as i64
                })
            }
            SAVE => {
                let (rname, rev) = zone[pick];
                let data = record_data(op.user, op.zone, rname, rev + 1);
                let (got, ns) = timed_op(db, tracer, CLASSES[class], |tr| {
                    run_txn(db, tr, true, &mut retries, |tx, tr| {
                        let s = tr.begin("cloudkit.save");
                        let saved = ck.save(tx, uid, APP, &data);
                        tr.end(s);
                        saved.map(|_| ())
                    })
                });
                got.is_some_and(|((), trace)| {
                    round.record(class, ns, 1, &trace);
                    round.user_bytes_saved += user_bytes(&data);
                    round.sample_files(Some(dir));
                    // A rewritten record moves to the end of the change
                    // stream.
                    zone.remove(pick);
                    zone.push_back((rname, rev + 1));
                    true
                })
            }
            REPLACE => {
                let (oldest, _) = zone[0];
                let oldest_s = record_name(oldest);
                let fresh = user.next_name;
                let data = record_data(op.user, op.zone, fresh, 0);
                let (got, ns) = timed_op(db, tracer, CLASSES[class], |tr| {
                    run_txn(db, tr, true, &mut retries, |tx, tr| {
                        let s = tr.begin("cloudkit.delete");
                        let deleted = ck.delete(tx, uid, APP, &zname, &oldest_s);
                        tr.end(s);
                        let s = tr.begin("cloudkit.save");
                        let saved = ck.save(tx, uid, APP, &data);
                        tr.end(s);
                        saved?;
                        deleted
                    })
                });
                got.is_some_and(|(deleted, trace)| {
                    round.record(class, ns, 1, &trace);
                    round.user_bytes_saved += user_bytes(&data);
                    round.sample_files(Some(dir));
                    zone.pop_front();
                    zone.push_back((fresh, 0));
                    user.next_name += 1;
                    deleted
                })
            }
            _ => unreachable!("class index out of range"),
        };
        round.retries += retries;
        if !ok {
            round.failed += 1;
            report_failed_op(name, op);
        }
    }
}

impl Env for TenantEnv {
    fn db(&self) -> &Database {
        &self.db
    }

    fn engine(&self) -> Engine {
        Engine::Paged {
            pool_pages: self.spec.pool_pages,
        }
    }

    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn designated(&self) -> Designated {
        Designated {
            get: LOAD,
            query: SYNC,
            write: SAVE,
        }
    }

    fn ops_per_round(&self) -> usize {
        self.spec.ops_per_round
    }

    fn clients(&self) -> usize {
        CLIENTS
    }

    fn run_round(&mut self, round: u64, traced: bool) -> Round {
        let TenantEnv {
            db,
            ck,
            dir,
            clients,
            spec,
            ..
        } = self;
        let shared = Shared {
            db,
            ck,
            dir,
            name: spec.name,
        };
        // The scope is the barrier: a round ends when both clients have
        // run their share of it.
        let parts: Vec<Round> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| scope.spawn(move || c.run(&shared, round, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut out = Round::new(CLASSES.len());
        for part in parts {
            out.merge(part);
        }
        out
    }

    fn set_handicap(&mut self, class: &'static str, ns: u64) {
        for client in &mut self.clients {
            client.tracer.set_handicap(class, ns);
        }
    }

    fn setup_ns(&self) -> u64 {
        self.setup_ns
    }

    fn population(&self) -> (u64, u64) {
        let mut in_db = 0i64;
        for (c, client) in self.clients.iter().enumerate() {
            for chunk in (0..client.users.len()).collect::<Vec<_>>().chunks(100) {
                let tx = self.db.create_transaction();
                for &u in chunk {
                    let uid = (u * CLIENTS + c) as i64;
                    for z in 0..ZONES as u8 {
                        in_db += self
                            .ck
                            .zone_record_count(&tx, uid, APP, &zone_name(z))
                            .expect("zone count reads");
                    }
                }
            }
        }
        let in_model: usize = self
            .clients
            .iter()
            .flat_map(|c| &c.users)
            .flat_map(|u| &u.zones)
            .map(VecDeque::len)
            .sum();
        (in_db as u64, in_model as u64)
    }

    fn live_user_bytes(&self) -> u64 {
        let mut total = 0;
        for (c, client) in self.clients.iter().enumerate() {
            for (u, user) in client.users.iter().enumerate() {
                for (z, zone) in user.zones.iter().enumerate() {
                    for &(name, rev) in zone {
                        let uid = (u * CLIENTS + c) as u32;
                        total += user_bytes(&record_data(uid, z as u8, name, rev));
                    }
                }
            }
        }
        total
    }

    fn verify_sample(&self, n: usize) -> u64 {
        let step = self.spec.users.div_ceil(n.div_ceil(ZONES)).max(1);
        let mut bad = 0;
        for u in (0..self.spec.users).step_by(step) {
            let user = &self.clients[u % CLIENTS].users[u / CLIENTS];
            let tx = self.db.create_transaction();
            for (z, zone) in user.zones.iter().enumerate() {
                let &(name, rev) = zone.back().expect("zones are never empty");
                let want = record_data(u as u32, z as u8, name, rev);
                let ok = self
                    .ck
                    .load(&tx, u as i64, APP, &want.zone, &want.name)
                    .ok()
                    .flatten()
                    .is_some_and(|r| record_matches(&r, &want));
                bad += u64::from(!ok);
            }
        }
        bad
    }

    fn reopen(&mut self) {
        // Both handles must be gone (final checkpoint, files closed)
        // before the directory is opened again.
        let clock_ms = self.db.clock_ms();
        let memory = open_database(Engine::Memory, Path::new(""));
        self.ck = CloudKit::new(&memory, &config());
        self.db = memory;
        self.db = reopen_database(self.engine(), &self.dir, clock_ms);
        self.ck = CloudKit::new(&self.db, &config());
    }

    fn dir(&self) -> Option<&Path> {
        Some(&self.dir)
    }

    fn message_sample(&self, n: usize) -> MessageSample {
        let md = self.ck.metadata();
        let desc = md
            .pool()
            .message(cloudkit_sim::service::RECORD_TYPE)
            .expect("CKRecord descriptor");
        let mut user_total = 0;
        let messages = (0..n as u32)
            .map(|i| {
                let d = record_data(i % self.spec.users as u32, (i % 2) as u8, i / 2, i % 7);
                user_total += user_bytes(&d);
                // The same fields `CloudKit::save` sets, system fields
                // included.
                let mut m = rl_message::DynamicMessage::new(desc.clone());
                m.set("zone", d.zone.as_str()).expect("zone");
                m.set("record_name", d.name.as_str()).expect("record_name");
                m.set("incarnation", 1i64).expect("incarnation");
                m.set("modified_at", i64::from(i)).expect("modified_at");
                for (k, v) in &d.string_fields {
                    m.set(k, v.as_str()).expect("string field");
                }
                for (k, v) in &d.int_fields {
                    m.set(k, *v).expect("int field");
                }
                m
            })
            .collect();
        MessageSample {
            messages,
            user_bytes: user_total,
            pool: md.pool().clone(),
        }
    }

    fn open_store_probe(&self, n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| {
                let tx = self.db.create_transaction();
                let t0 = now();
                let store = self
                    .ck
                    .open_store(&tx, (i % self.spec.users) as i64, APP)
                    .expect("store opens");
                let ns = t0.elapsed().as_nanos() as u64;
                drop(store);
                ns
            })
            .collect()
    }
}
