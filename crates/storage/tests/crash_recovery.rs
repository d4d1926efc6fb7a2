//! Crash-recovery tests for the paged engine: drop the process state on
//! the floor (no clean shutdown), reopen from the files alone, and verify
//! that exactly the committed batches are readable and the tree is
//! structurally consistent.

use std::path::{Path, PathBuf};

use rl_storage::{commit, EvictionPolicy, IoCounters, Mutation, PagedEngine, StorageEngine};

fn dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rl-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(d: &Path) -> PagedEngine {
    PagedEngine::open(d, 16, EvictionPolicy::Sieve, IoCounters::new_shared()).unwrap()
}

#[test]
fn committed_batches_survive_a_crash() {
    let d = dir("committed");
    {
        let mut e = open(&d);
        for batch in 0..10u64 {
            for i in 0..20u32 {
                e.write(
                    format!("b{batch:02}-k{i:02}").into_bytes(),
                    Some(format!("v{batch}-{i}").into_bytes()),
                    batch * 10 + 10,
                );
            }
            e.commit_batch();
        }
        e.simulate_crash();
    }

    let mut e = open(&d);
    assert_eq!(e.check_consistency().unwrap(), 200);
    for batch in 0..10u64 {
        for i in (0..20u32).step_by(7) {
            let key = format!("b{batch:02}-k{i:02}").into_bytes();
            assert_eq!(
                e.get(&key, 1_000),
                Some(format!("v{batch}-{i}").into_bytes()),
                "batch {batch} key {i}"
            );
        }
    }
    assert_eq!(e.live_key_count(1_000), 200);
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn uncommitted_tail_vanishes_on_crash() {
    let d = dir("uncommitted");
    {
        let mut e = open(&d);
        e.write(b"durable".to_vec(), Some(b"1".to_vec()), 10);
        e.commit_batch();
        // Gathered for a commit_batch that never comes, and a range clear
        // staged but never sealed: neither gets a frame, so neither may
        // survive.
        e.write(b"lost".to_vec(), Some(b"2".to_vec()), 20);
        let clear = (
            b"durable".to_vec(),
            Mutation::ClearRange(b"durablf".to_vec()),
        );
        let staged = e.stage(20, vec![clear]);
        e.simulate_crash();
        drop(staged);
    }

    let mut e = open(&d);
    assert_eq!(
        e.get(b"durable", 100),
        Some(b"1".to_vec()),
        "committed data intact"
    );
    assert_eq!(e.get(b"lost", 100), None, "uncommitted write discarded");
    assert_eq!(e.newest_version(), 10, "nothing at version 20 survived");
    e.check_consistency().unwrap();
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn reopen_mid_log_after_checkpoint() {
    // Crash with a WAL that is only partially covered by the checkpoint:
    // recovery must replay the tail past the checkpoint LSN, not the whole
    // log and not nothing.
    let d = dir("midlog");
    {
        let mut e = open(&d);
        e.write(b"pre".to_vec(), Some(b"checkpointed".to_vec()), 10);
        e.commit_batch();
        e.flush().unwrap(); // checkpoint + WAL truncation
        e.write(b"post-a".to_vec(), Some(b"replayed".to_vec()), 20);
        e.commit_batch();
        e.write(b"post-b".to_vec(), None, 30); // tombstone in the tail
        e.write(b"pre".to_vec(), Some(b"rewritten".to_vec()), 30);
        e.commit_batch();
        e.simulate_crash();
    }

    let mut e = open(&d);
    assert_eq!(e.get(b"pre", 15), Some(b"checkpointed".to_vec()));
    assert_eq!(e.get(b"pre", 35), Some(b"rewritten".to_vec()));
    assert_eq!(e.get(b"post-a", 35), Some(b"replayed".to_vec()));
    assert_eq!(e.get(b"post-b", 35), None);
    assert_eq!(e.check_consistency().unwrap(), 3);
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn torn_wal_tail_is_discarded() {
    let d = dir("torn");
    {
        let mut e = open(&d);
        e.write(b"good".to_vec(), Some(b"1".to_vec()), 10);
        e.commit_batch();
        e.simulate_crash();
    }
    // Simulate a torn append: garbage bytes at the end of the log.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(d.join("wal.log"))
            .unwrap();
        f.write_all(&[0xBA, 0xD0, 0xF0, 0x0D, 0x01]).unwrap();
    }

    let mut e = open(&d);
    assert_eq!(e.get(b"good", 100), Some(b"1".to_vec()));
    e.check_consistency().unwrap();
    // The engine keeps working after truncating the torn tail.
    e.write(b"after".to_vec(), Some(b"2".to_vec()), 20);
    e.commit_batch();
    drop(e);
    let e = open(&d);
    assert_eq!(e.get(b"after", 100), Some(b"2".to_vec()));
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn repeated_crashes_are_idempotent() {
    // Recovery itself checkpoints; crashing immediately after recovery and
    // reopening again must converge to the same state every time.
    let d = dir("repeat");
    {
        let mut e = open(&d);
        for i in 0..50u32 {
            e.write(format!("k{i:02}").into_bytes(), Some(vec![i as u8]), 10);
        }
        e.commit_batch();
        e.simulate_crash();
    }
    for _ in 0..3 {
        let mut e = open(&d);
        assert_eq!(e.check_consistency().unwrap(), 50);
        assert_eq!(e.get(b"k25", 100), Some(vec![25]));
        e.simulate_crash();
    }
    let _ = std::fs::remove_dir_all(&d);
}

/// Page format 1's checksum: FNV-1a 64, folded to 32 bits.
fn fnv1a_folded(bytes: &[u8]) -> u32 {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    (h ^ (h >> 32)) as u32
}

/// What a page format checksums its pages and WAL frames with.
type Checksum = fn(&[u8]) -> u32;

#[test]
fn retired_page_formats_are_refused_before_the_wal_is_touched() {
    // Format 1 checksummed pages and WAL frames with FNV-1a; formats 2 and
    // 3 with XXH64, as format 4 does, and differ in their B-tree nodes.
    let formats: [(u64, Checksum); 3] = [
        (0x524C_5041_4745_4431, fnv1a_folded), // "RLPAGED1"
        (0x524C_5041_4745_4432, rl_storage::page::checksum), // "RLPAGED2"
        (0x524C_5041_4745_4433, rl_storage::page::checksum), // "RLPAGED3"
    ];
    for (format, (magic, checksum)) in (1..).zip(formats) {
        let d = dir(&format!("format{format}"));
        std::fs::create_dir_all(&d).unwrap();
        // Meta slot 0, generation 0: magic, generation, page_count, root,
        // lsn, free count — framed as that format framed it.
        let mut meta = magic.to_le_bytes().to_vec();
        meta.extend_from_slice(&0u64.to_le_bytes());
        meta.extend_from_slice(&2u32.to_le_bytes());
        meta.extend_from_slice(&0u32.to_le_bytes());
        meta.extend_from_slice(&0u64.to_le_bytes());
        meta.extend_from_slice(&0u32.to_le_bytes());
        let mut pages = vec![0u8; 2 * 4096];
        pages[4..8].copy_from_slice(&(meta.len() as u32).to_le_bytes());
        pages[8..8 + meta.len()].copy_from_slice(&meta);
        let sum = checksum(&pages[4..8 + meta.len()]);
        pages[0..4].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(d.join("pages.db"), &pages).unwrap();
        // One committed WAL frame: a set of "k" at version 10.
        let mut op = vec![0x01];
        op.extend_from_slice(&10u64.to_le_bytes());
        op.extend_from_slice(&1u32.to_le_bytes());
        op.push(b'k');
        op.extend_from_slice(&1u32.to_le_bytes());
        op.push(b'v');
        let mut wal = (op.len() as u32).to_le_bytes().to_vec();
        wal.extend_from_slice(&checksum(&op).to_le_bytes());
        wal.extend_from_slice(&op);
        std::fs::write(d.join("wal.log"), &wal).unwrap();

        let err = PagedEngine::open(&d, 16, EvictionPolicy::Sieve, IoCounters::new_shared())
            .expect_err("a directory of a retired format must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{err}");
        let what = format!("page format {format} (");
        assert!(err.to_string().contains(&what), "{err}");
        assert_eq!(
            std::fs::read(d.join("wal.log")).unwrap(),
            wal,
            "format {format}"
        );
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn mvcc_versions_preserved_across_recovery() {
    // Version chains (not just latest values) must survive: a reader at an
    // old read version sees the old value after recovery.
    let d = dir("mvcc");
    {
        let mut e = open(&d);
        e.write(b"k".to_vec(), Some(b"old".to_vec()), 10);
        e.commit_batch();
        e.write(b"k".to_vec(), Some(b"new".to_vec()), 20);
        e.write(b"k2".to_vec(), Some(b"x".to_vec()), 20);
        e.commit_batch();
        commit(
            &mut e,
            30,
            vec![(b"k2".to_vec(), Mutation::ClearRange(b"k3".to_vec()))],
        );
        e.simulate_crash();
    }

    let e = open(&d);
    assert_eq!(e.get(b"k", 10), Some(b"old".to_vec()));
    assert_eq!(e.get(b"k", 25), Some(b"new".to_vec()));
    assert_eq!(e.get(b"k2", 25), Some(b"x".to_vec()));
    assert_eq!(e.get(b"k2", 35), None);
    assert_eq!(e.total_version_entries(), 4);
    let _ = std::fs::remove_dir_all(&d);
}
