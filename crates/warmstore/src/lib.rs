//! Persisted warm-start store for converged CE stochastic matrices.
//!
//! Real arrival streams at a mapping service are dominated by
//! near-duplicate task graphs (the same application template resubmitted
//! with slightly different weights), so the converged matrix `P` from one
//! solve is a high-value prior for the next. This crate stores those
//! matrices keyed by a **graph-structure hash** — computed upstream in
//! `match-serve` with edge weights excluded and node costs quantized, so
//! near-duplicates collide on purpose — and round-trips them
//! **bit-exactly** via [`StochasticMatrix::from_raw`] (f64 bit patterns in
//! hex, never re-normalised).
//!
//! Durability model: an append-only text log (one record per line) plus an
//! in-memory index. `put` appends; on reload the last record per key wins.
//! When superseded/evicted records outnumber live ones the log is
//! compacted in place (write temp, rename). [`WarmStore::flush`] flushes
//! the buffered writer **and fsyncs**, which the serve shutdown drain
//! calls so a kill right after drain loses nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use match_ce::StochasticMatrix;

/// One stored warm-start entry: the converged matrix plus the cold-solve
/// statistics that let a warm hit report `iterations_saved` honestly.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmEntry {
    /// Side length of the (square) matrix — the instance's task count.
    pub n: usize,
    /// CE iterations the *cold* solve that produced this matrix took.
    /// Warm hits report `cold_iterations − warm_iterations` as savings.
    pub cold_iterations: u64,
    /// Final cost of the producing solve (diagnostics only).
    pub cost: f64,
    /// The converged row-stochastic matrix, bit-exact.
    pub matrix: StochasticMatrix,
}

struct Slot {
    entry: WarmEntry,
    stamp: u64,
}

struct Log {
    path: PathBuf,
    writer: BufWriter<File>,
}

struct Inner {
    index: HashMap<u64, Slot>,
    stamp: u64,
    cap: usize,
    /// Records in the log file superseded by a later record or evicted —
    /// when they outnumber live entries the log is compacted.
    dead: usize,
    log: Option<Log>,
}

/// Append-only warm-start store with an in-memory LRU index.
///
/// All methods take `&self`; the store is internally locked and safe to
/// share behind an `Arc` between serve workers.
pub struct WarmStore {
    inner: Mutex<Inner>,
}

/// Counters reported by [`WarmStore::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStoreStats {
    /// Live entries in the index.
    pub entries: usize,
    /// Dead (superseded or evicted) records still sitting in the log.
    pub dead_records: usize,
    /// Whether the store is file-backed.
    pub persistent: bool,
}

impl WarmStore {
    /// A purely in-memory store (tests, `--warm-store` not configured
    /// but warm starts still wanted within one process lifetime).
    ///
    /// `cap` bounds the number of entries; 0 disables storage entirely
    /// (every `get` misses, every `put` is dropped).
    pub fn in_memory(cap: usize) -> Self {
        WarmStore {
            inner: Mutex::new(Inner {
                index: HashMap::new(),
                stamp: 0,
                cap,
                dead: 0,
                log: None,
            }),
        }
    }

    /// Open (or create) a file-backed store, replaying the log into the
    /// in-memory index. Later records win; unparseable lines (bytes that
    /// are not UTF-8, say) are skipped, and the next compaction drops
    /// them. A last line without its `\n` (a write torn by a crash) is
    /// never parsed, and the log is cut back to the end of its last
    /// complete line. Only I/O errors fail the open.
    pub fn open(path: &Path, cap: usize) -> std::io::Result<Self> {
        let mut index: HashMap<u64, Slot> = HashMap::new();
        let mut stamp = 0u64;
        let mut records = 0usize;
        // Bytes read, and bytes up to the end of the last complete line.
        // A torn record can still parse (cut inside its last hex word,
        // the shorter word is valid hex) and would load a wrong value;
        // and an append would extend it, losing the appended record too.
        let (mut read, mut complete) = (0u64, 0u64);
        if path.exists() {
            let mut reader = BufReader::new(File::open(path)?);
            let mut line = Vec::new();
            loop {
                let got = reader.read_until(b'\n', &mut line)?;
                read += got as u64;
                if line.pop() != Some(b'\n') {
                    break;
                }
                complete = read;
                let record = std::str::from_utf8(&line).ok().and_then(parse_record);
                if let Some((key, entry)) = record {
                    records += 1;
                    stamp += 1;
                    index.insert(key, Slot { entry, stamp });
                }
                line.clear();
            }
        }
        // LRU-trim a log that was written under a larger cap.
        let mut dead = records.saturating_sub(index.len());
        while cap > 0 && index.len() > cap {
            if let Some((&key, _)) = index.iter().min_by_key(|(_, s)| s.stamp) {
                index.remove(&key);
                dead += 1;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if read > complete {
            file.set_len(complete)?;
        }
        Ok(WarmStore {
            inner: Mutex::new(Inner {
                index,
                stamp,
                cap,
                dead,
                log: Some(Log {
                    path: path.to_path_buf(),
                    writer: BufWriter::new(file),
                }),
            }),
        })
    }

    /// Look up the prior for a structure key, refreshing its LRU stamp.
    pub fn get(&self, key: u64) -> Option<WarmEntry> {
        let mut inner = self.inner.lock().expect("warmstore poisoned");
        inner.stamp += 1;
        let stamp = inner.stamp;
        let slot = inner.index.get_mut(&key)?;
        slot.stamp = stamp;
        Some(slot.entry.clone())
    }

    /// Insert or overwrite the entry for a structure key, appending to
    /// the log when file-backed. Evicts the least-recently-used entry
    /// beyond `cap`; compacts the log when dead records outnumber live
    /// ones. I/O errors are returned but leave the index consistent.
    pub fn put(&self, key: u64, entry: WarmEntry) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("warmstore poisoned");
        if inner.cap == 0 {
            return Ok(());
        }
        inner.stamp += 1;
        let stamp = inner.stamp;
        if let Some(log) = &mut inner.log {
            let mut line = String::new();
            write_record(&mut line, key, &entry);
            log.writer.write_all(line.as_bytes())?;
        }
        if inner.index.insert(key, Slot { entry, stamp }).is_some() {
            inner.dead += 1;
        }
        if inner.index.len() > inner.cap {
            if let Some((&victim, _)) = inner.index.iter().min_by_key(|(_, s)| s.stamp) {
                inner.index.remove(&victim);
                inner.dead += 1;
            }
        }
        if inner.log.is_some() && inner.dead > inner.index.len().max(16) {
            compact(&mut inner)?;
        }
        Ok(())
    }

    /// Flush buffered writes and fsync the log file. A no-op for
    /// in-memory stores. Called from the serve shutdown drain.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("warmstore poisoned");
        if let Some(log) = &mut inner.log {
            log.writer.flush()?;
            log.writer.get_ref().sync_all()?;
        }
        Ok(())
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("warmstore poisoned").index.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Store health counters.
    pub fn stats(&self) -> WarmStoreStats {
        let inner = self.inner.lock().expect("warmstore poisoned");
        WarmStoreStats {
            entries: inner.index.len(),
            dead_records: inner.dead,
            persistent: inner.log.is_some(),
        }
    }
}

/// Rewrite the log with only live records (temp file + rename), then
/// reopen the append writer. Resets the dead-record count.
fn compact(inner: &mut Inner) -> std::io::Result<()> {
    let Some(log) = &mut inner.log else {
        return Ok(());
    };
    log.writer.flush()?;
    let tmp = log.path.with_extension("compact.tmp");
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        // Stamp order so a reload preserves LRU recency.
        let mut live: Vec<(&u64, &Slot)> = inner.index.iter().collect();
        live.sort_by_key(|(_, s)| s.stamp);
        let mut line = String::new();
        for (key, slot) in live {
            line.clear();
            write_record(&mut line, *key, &slot.entry);
            w.write_all(line.as_bytes())?;
        }
        w.flush()?;
        w.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, &log.path)?;
    log.writer = BufWriter::new(OpenOptions::new().append(true).open(&log.path)?);
    inner.dead = 0;
    Ok(())
}

/// One record: `v1 <key:hex> <n> <cold_iters> <cost:f64-bits-hex>
/// <n*n f64-bits-hex...>` — all-hex f64 bit patterns make the round
/// trip bit-exact and the file greppable.
fn write_record(out: &mut String, key: u64, entry: &WarmEntry) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "v1 {key:016x} {} {} {:016x}",
        entry.n,
        entry.cold_iterations,
        entry.cost.to_bits()
    );
    for v in entry.matrix.data() {
        let _ = write!(out, " {:016x}", v.to_bits());
    }
    out.push('\n');
}

fn parse_record(line: &str) -> Option<(u64, WarmEntry)> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "v1" {
        return None;
    }
    let key = u64::from_str_radix(parts.next()?, 16).ok()?;
    let n: usize = parts.next()?.parse().ok()?;
    let cold_iterations: u64 = parts.next()?.parse().ok()?;
    let cost = f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?);
    let mut data = Vec::with_capacity(n * n);
    for p in parts {
        data.push(f64::from_bits(u64::from_str_radix(p, 16).ok()?));
    }
    if data.len() != n * n || n == 0 {
        return None;
    }
    Some((
        key,
        WarmEntry {
            n,
            cold_iterations,
            cost,
            matrix: StochasticMatrix::from_raw(n, n, data),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: usize, iters: u64, seed: f64) -> WarmEntry {
        // Rows that do NOT sum to exactly 1.0 in floating point — the
        // bit-exactness assertions below would catch a normalising
        // constructor sneaking into the reload path.
        let data: Vec<f64> = (0..n * n)
            .map(|i| 0.1 + seed * (i as f64 + 1.0) * 1e-3)
            .collect();
        WarmEntry {
            n,
            cold_iterations: iters,
            cost: 42.5 + seed,
            matrix: StochasticMatrix::from_raw(n, n, data),
        }
    }

    fn assert_bit_equal(a: &WarmEntry, b: &WarmEntry) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.cold_iterations, b.cold_iterations);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.matrix.data().len(), b.matrix.data().len());
        for (x, y) in a.matrix.data().iter().zip(b.matrix.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "warmstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    #[test]
    fn in_memory_round_trip() {
        let store = WarmStore::in_memory(4);
        assert!(store.get(7).is_none());
        store.put(7, entry(3, 12, 1.0)).unwrap();
        let got = store.get(7).unwrap();
        assert_bit_equal(&got, &entry(3, 12, 1.0));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn cap_zero_disables() {
        let store = WarmStore::in_memory(0);
        store.put(1, entry(2, 5, 1.0)).unwrap();
        assert!(store.get(1).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn lru_eviction_at_cap() {
        let store = WarmStore::in_memory(2);
        store.put(1, entry(2, 1, 1.0)).unwrap();
        store.put(2, entry(2, 2, 2.0)).unwrap();
        // Touch key 1 so key 2 is the LRU victim.
        assert!(store.get(1).is_some());
        store.put(3, entry(2, 3, 3.0)).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.get(1).is_some());
        assert!(store.get(2).is_none());
        assert!(store.get(3).is_some());
    }

    #[test]
    fn file_backed_reload_is_bit_exact() {
        let path = temp_path("reload");
        let _ = std::fs::remove_file(&path);
        {
            let store = WarmStore::open(&path, 8).unwrap();
            store.put(10, entry(4, 33, 1.0)).unwrap();
            store.put(11, entry(3, 21, 2.0)).unwrap();
            // Overwrite: the reload must surface the later record.
            store.put(10, entry(4, 44, 5.0)).unwrap();
            store.flush().unwrap();
        }
        let store = WarmStore::open(&path, 8).unwrap();
        assert_eq!(store.len(), 2);
        assert_bit_equal(&store.get(10).unwrap(), &entry(4, 44, 5.0));
        assert_bit_equal(&store.get(11).unwrap(), &entry(3, 21, 2.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_line_is_skipped() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let store = WarmStore::open(&path, 8).unwrap();
            store.put(1, entry(2, 9, 1.0)).unwrap();
            store.flush().unwrap();
        }
        // Simulate a crash mid-append: garbage tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "v1 00000000000000ff 2 3 4").unwrap();
        }
        let store = WarmStore::open(&path, 8).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.get(1).is_some());
        assert!(store.get(0xff).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_put_after_a_torn_tail_survives_reload() {
        let path = temp_path("torn-put");
        let mut log = String::new();
        write_record(&mut log, 1, &entry(2, 9, 1.0));
        log.push_str("v1 00000000000000ff 2 3 4");
        std::fs::write(&path, log).unwrap();
        {
            let store = WarmStore::open(&path, 8).unwrap();
            store.put(2, entry(3, 7, 2.0)).unwrap();
            store.flush().unwrap();
        }
        let store = WarmStore::open(&path, 8).unwrap();
        assert_bit_equal(&store.get(1).unwrap(), &entry(2, 9, 1.0));
        let got = store.get(2).expect("record put after a torn tail was lost");
        assert_bit_equal(&got, &entry(3, 7, 2.0));
        assert_eq!(store.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_torn_inside_its_last_word_is_cut_off() {
        let path = temp_path("torn-word");
        let mut log = String::new();
        write_record(&mut log, 1, &entry(2, 9, 1.0));
        write_record(&mut log, 2, &entry(2, 5, 2.0));
        // Cut the second record inside its last hex word: the `\n` and
        // three hex digits go, and what is left is still valid hex.
        log.truncate(log.len() - 4);
        std::fs::write(&path, &log).unwrap();
        {
            let store = WarmStore::open(&path, 8).unwrap();
            assert_eq!(store.len(), 1);
            assert!(store.get(2).is_none(), "a torn record loaded");
            store.put(3, entry(3, 7, 3.0)).unwrap();
            store.flush().unwrap();
        }
        let store = WarmStore::open(&path, 8).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.get(2).is_none(), "a torn record loaded on reload");
        assert_bit_equal(&store.get(1).unwrap(), &entry(2, 9, 1.0));
        assert_bit_equal(&store.get(3).unwrap(), &entry(3, 7, 3.0));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "the torn tail was not cut off");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_utf8_line_is_skipped() {
        let path = temp_path("non-utf8");
        let mut log = String::new();
        write_record(&mut log, 1, &entry(2, 9, 1.0));
        let mut bytes = log.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        let mut second = String::new();
        write_record(&mut second, 2, &entry(3, 7, 2.0));
        bytes.extend_from_slice(second.as_bytes());
        std::fs::write(&path, bytes).unwrap();

        let store = WarmStore::open(&path, 8).unwrap();
        assert_eq!(store.len(), 2);
        assert_bit_equal(&store.get(1).unwrap(), &entry(2, 9, 1.0));
        assert_bit_equal(&store.get(2).unwrap(), &entry(3, 7, 2.0));
        store.put(3, entry(2, 4, 3.0)).unwrap();
        store.flush().unwrap();
        drop(store);

        let store = WarmStore::open(&path, 8).unwrap();
        assert_eq!(store.len(), 3);
        assert_bit_equal(&store.get(3).unwrap(), &entry(2, 4, 3.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_drops_dead_records() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        let store = WarmStore::open(&path, 4).unwrap();
        // Hammer one key: every overwrite is a dead record, so the
        // dead > max(live, 16) threshold must trip and compact.
        for i in 0..40u64 {
            store.put(1, entry(2, i, i as f64)).unwrap();
        }
        store.flush().unwrap();
        assert!(store.stats().dead_records <= 17);
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert!(lines < 40, "log should have been compacted, {lines} lines");
        // The survivor is the latest record.
        let reloaded = WarmStore::open(&path, 4).unwrap();
        assert_bit_equal(&reloaded.get(1).unwrap(), &entry(2, 39, 39.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_respects_smaller_cap() {
        let path = temp_path("cap");
        let _ = std::fs::remove_file(&path);
        {
            let store = WarmStore::open(&path, 8).unwrap();
            for k in 0..6u64 {
                store.put(k, entry(2, k, k as f64)).unwrap();
            }
            store.flush().unwrap();
        }
        let store = WarmStore::open(&path, 3).unwrap();
        assert_eq!(store.len(), 3);
        // Most recent three survive the trim.
        assert!(store.get(5).is_some());
        assert!(store.get(4).is_some());
        assert!(store.get(3).is_some());
        assert!(store.get(0).is_none());
        let _ = std::fs::remove_file(&path);
    }
}
