//! A fixed piece of work, timed *between* the rounds, that says how fast
//! the machine is right now.
//!
//! The benchmark runs on a shared virtual machine. When a neighbour is
//! busy the memory system slows down (a pure-CPU loop here is steady to
//! 3 %, an ordered-map loop swings by 40 %), for a burst of a few hundred
//! milliseconds or for minutes — whole runs — and no statistic taken
//! inside one run can tell that from a slower program. So before and
//! after every round (and every set-up and probe) each client thread
//! times a burst of yardstick slices — ordered-map gets, a short range
//! scan, a copy and an overwrite on a private map — and the times of a
//! run are divided by the quiet quartile of all its slices.
//!
//! The program under test never runs while a slice is timed, and the
//! first slices of a burst, which pay for whatever the program left in
//! the caches and the TLB, are thrown away: the ruler does not move when
//! the program changes. (An earlier yardstick interleaved single slices
//! with the ops. A slice then ran between 1.0 and 2.5 times its warm
//! time depending on how long the op before it was and how much memory it
//! touched, so a change to the program moved the ruler; see
//! `README.md`.)
//!
//! Reported times are therefore *yardstick-normalised µs*: wall-clock µs
//! ÷ (slice time ÷ [`NOMINAL_SLICE_NS`]). They compare two builds on one
//! kind of box; the wall-clock values are in `out/<workload>.json` beside
//! them.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::clock::now;
use crate::rng::Rng;
use crate::stats::{quiet_quartile, Better};

/// A warm slice is *defined* to take this long: about the quiet quartile
/// of one client's slices on the 2-vCPU reference box. Only ratios to it
/// are ever reported.
pub const NOMINAL_SLICE_NS: f64 = 16_500.0;
/// Slices at the head of a burst that are run and not timed.
const DISCARDED: usize = 20;
/// Timed slices of a burst: about 2 ms.
const TIMED: usize = 100;

const ENTRIES: u64 = 20_000;
const VALUE_BYTES: usize = 100;
const STEPS_PER_SLICE: usize = 40;

type Key = [u8; 16];
type Value = [u8; VALUE_BYTES];

pub struct Yardstick {
    /// Keys and values are inline arrays: after construction a slice
    /// allocates nothing, so it cannot fragment the heap the program
    /// under test allocates from.
    map: BTreeMap<Key, Value>,
    rng: Rng,
    /// Timed slices since the last [`Yardsticks::take_slowdown`], in ns.
    timed: Vec<u64>,
}

fn key(mut i: u64) -> Key {
    let mut k = *b"key-000000000000";
    for digit in k.iter_mut().rev().take(12) {
        *digit = b'0' + (i % 10) as u8;
        i /= 10;
    }
    k
}

impl Yardstick {
    pub fn new() -> Yardstick {
        Yardstick {
            map: (0..ENTRIES)
                .map(|i| (key(i), [i as u8; VALUE_BYTES]))
                .collect(),
            // What the yardstick touches is no input of the program under
            // test, so it does not depend on `--seed`.
            rng: Rng::new(0x5EED),
            timed: Vec::new(),
        }
    }

    fn slice(&mut self) -> u64 {
        let t0 = now();
        for _ in 0..STEPS_PER_SLICE {
            let k = key(self.rng.below(ENTRIES));
            let mut v = *self.map.get(&k).expect("yardstick key");
            let scanned: u64 = self
                .map
                .range(k..)
                .take(10)
                .map(|(_, v)| u64::from(v[0]))
                .sum();
            v[0] = black_box(scanned) as u8;
            self.map.insert(k, v);
        }
        t0.elapsed().as_nanos() as u64
    }

    fn burst(&mut self) {
        for _ in 0..DISCARDED {
            self.slice();
        }
        for _ in 0..TIMED {
            let ns = self.slice();
            self.timed.push(ns);
        }
    }
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::new()
    }
}

/// One yardstick per client thread of a workload.
pub struct Yardsticks(Vec<Yardstick>);

impl Yardsticks {
    pub fn new(clients: usize) -> Yardsticks {
        Yardsticks((0..clients).map(|_| Yardstick::new()).collect())
    }

    /// Time one burst on each of `threads` threads at the same time (so
    /// two clients see what they do to each other's memory traffic, as
    /// their ops do).
    pub fn burst(&mut self, threads: usize) {
        match &mut self.0[..threads] {
            // On the thread that runs the ops, not on a fresh one that
            // may land on the other processor.
            [one] => one.burst(),
            many => std::thread::scope(|scope| {
                for y in many {
                    scope.spawn(|| y.burst());
                }
            }),
        }
    }

    /// How slow the machine ran over the bursts since the last call, 1
    /// being nominal: the quiet quartile of their slices ÷ nominal.
    /// Thousands of slices go into it, so it is far steadier than any
    /// one burst, and like the rounds' quiet quartile it sits in the
    /// undisturbed part of the stretch.
    pub fn take_slowdown(&mut self) -> f64 {
        let slices: Vec<f64> = self
            .0
            .iter_mut()
            .flat_map(|y| std::mem::take(&mut y.timed))
            .map(|ns| ns as f64)
            .collect();
        quiet_quartile(&slices, Better::Lower) / NOMINAL_SLICE_NS
    }
}
