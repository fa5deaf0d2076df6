//! The fork/join core and its views.
//!
//! Every parallel loop of the crate runs through
//! [`parallel_fill_rows_chunked`]: one `std::thread::scope`, one
//! contiguous chunk of `rows.div_ceil(threads)` rows per worker, and the
//! workers joined in chunk order. At one thread, or below
//! [`parallel_threshold`] rows, the whole buffer runs inline on the
//! caller's thread as chunk 0.

use std::time::Instant;

/// Below this many rows the fork/join overhead outweighs the win and the
/// loop runs inline.
pub const fn parallel_threshold() -> usize {
    64
}

/// Wall-clock timing of one chunk of a dispatch.
///
/// `match-par` stays telemetry-agnostic: callers that trace convert these
/// into their own event types (match-core turns them into pool events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTiming {
    /// Chunk index within the dispatch (0-based).
    pub chunk: u64,
    /// Number of items the chunk processed.
    pub len: u64,
    /// Wall-clock nanoseconds the chunk's worker spent on it.
    pub wall_ns: u64,
}

/// Fill `aux.len()` disjoint `width`-sized rows of `data` — plus one
/// `aux` slot per row — in parallel, handing each worker its **whole
/// chunk** at once, and return per-chunk wall-clock timings.
///
/// `f(state, base, chunk_data, chunk_aux)` runs once per chunk, where
/// `chunk_data` covers the `chunk_aux.len()` rows of `width` items that
/// start at global row `base`, and `state` comes fresh from `init`.
/// Batch evaluators want this shape: they amortise per-call setup (a
/// structure-of-arrays transpose, lane buffers) across a chunk instead
/// of paying it per row. Both buffers are caller-owned, so repeated
/// batches reuse one allocation each. `data.len()` must equal
/// `aux.len() * width`.
///
/// Worker `k` takes rows `k·c..(k+1)·c` with `c = rows.div_ceil(threads)`
/// (the last chunk may be shorter, and there may be fewer chunks than
/// threads). With `threads <= 1` or fewer rows than
/// [`parallel_threshold`], `f` runs inline once over the entire buffer,
/// and an empty buffer reports no chunk. A worker's panic is resumed on
/// the caller's thread with its own payload.
pub fn parallel_fill_rows_chunked<T, U, S, I, F>(
    data: &mut [T],
    aux: &mut [U],
    width: usize,
    threads: usize,
    init: I,
    f: F,
) -> Vec<ChunkTiming>
where
    T: Send,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T], &mut [U]) + Sync,
{
    let rows = aux.len();
    assert_eq!(
        data.len(),
        rows.checked_mul(width).expect("rows × width overflows"),
        "data must hold rows × width items"
    );
    let run = |chunk: usize, base: usize, data: &mut [T], aux: &mut [U]| {
        let start = Instant::now();
        let len = aux.len() as u64;
        let mut state = init();
        f(&mut state, base, data, aux);
        ChunkTiming {
            chunk: chunk as u64,
            len,
            wall_ns: start.elapsed().as_nanos() as u64,
        }
    };
    if threads <= 1 || rows < parallel_threshold() {
        let timing = run(0, 0, data, aux);
        return if rows == 0 { Vec::new() } else { vec![timing] };
    }

    let chunk_rows = rows.div_ceil(threads);
    let mut data_rest = data;
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = aux
            .chunks_mut(chunk_rows)
            .enumerate()
            .map(|(chunk, aux)| {
                let (data, tail) = std::mem::take(&mut data_rest).split_at_mut(aux.len() * width);
                data_rest = tail;
                scope.spawn(move || run(chunk, chunk * chunk_rows, data, aux))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// [`parallel_fill_rows_chunked`] one row at a time:
/// `f(state, i, row, aux)` runs once per row `i`, receiving the row's
/// `&mut [T]` slice of the flat `rows × width` buffer and the row's
/// `&mut U` slot (typically its cost). This is the fused
/// produce-and-score primitive. Chunks, per-worker `state`, the inline
/// path and the timings are those of the core.
pub fn parallel_fill_rows<T, U, S, I, F>(
    data: &mut [T],
    aux: &mut [U],
    width: usize,
    threads: usize,
    init: I,
    f: F,
) -> Vec<ChunkTiming>
where
    T: Send,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T], &mut U) + Sync,
{
    parallel_fill_rows_chunked(data, aux, width, threads, init, |state, base, data, aux| {
        let mut rest = data;
        for (k, slot) in aux.iter_mut().enumerate() {
            let (row, tail) = rest.split_at_mut(width);
            rest = tail;
            f(state, base + k, row, slot);
        }
    })
}

/// [`parallel_map`] that also reports per-chunk wall-clock timings, so
/// callers can observe dispatch imbalance. The inline path (single
/// thread or small input) reports one chunk covering the whole range.
pub fn parallel_map_timed<T, F>(len: usize, threads: usize, f: F) -> (Vec<T>, Vec<ChunkTiming>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(len, || None);
    let timings = parallel_fill_rows_chunked(
        &mut out,
        &mut vec![(); len],
        1,
        threads,
        || (),
        |(), base, slots, _| {
            for (k, slot) in slots.iter_mut().enumerate() {
                *slot = Some(f(base + k));
            }
        },
    );
    let out = out
        .into_iter()
        .map(|x| x.expect("every index filled"))
        .collect();
    (out, timings)
}

/// Apply `f(i)` for every `i in 0..len` in parallel, collecting results in
/// input order.
///
/// `f` must be `Sync` (shared across workers by reference). With
/// `threads <= 1` or `len < parallel_threshold()` the loop runs inline,
/// avoiding spawn overhead for the small instances of the paper's sweep.
///
/// ```
/// let squares = match_par::parallel_map(1000, 4, |i| i * i);
/// assert_eq!(squares[31], 961);
/// ```
pub fn parallel_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_timed(len, threads, f).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn map_matches_sequential() {
        for threads in [1, 2, 4, 8] {
            for len in [0, 1, 63, 64, 65, 1000] {
                let got = parallel_map(len, threads, |i| i * i);
                let want: Vec<usize> = (0..len).map(|i| i * i).collect();
                assert_eq!(got, want, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn map_preserves_order_with_uneven_work() {
        // Make later items finish first to catch order bugs.
        let got = parallel_map(200, 4, |i| {
            if i < 100 {
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(got, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn fill_rows_matches_sequential() {
        for threads in [1, 2, 4, 8] {
            for rows in [0usize, 1, 63, 64, 65, 500] {
                let width = 3;
                let mut data = vec![0usize; rows * width];
                let mut aux = vec![0.0f64; rows];
                let timings = parallel_fill_rows(
                    &mut data,
                    &mut aux,
                    width,
                    threads,
                    || (),
                    |(), i, row, a| {
                        for (k, slot) in row.iter_mut().enumerate() {
                            *slot = i * width + k;
                        }
                        *a = i as f64;
                    },
                );
                assert!(
                    data.iter().enumerate().all(|(j, &v)| v == j),
                    "threads={threads} rows={rows}"
                );
                assert!(aux.iter().enumerate().all(|(i, &v)| v == i as f64));
                let covered: u64 = timings.iter().map(|t| t.len).sum();
                assert_eq!(covered, rows as u64, "timings must cover all rows");
            }
        }
    }

    #[test]
    fn fill_rows_builds_one_state_per_worker() {
        let builds = AtomicUsize::new(0);
        let mut data = vec![0u8; 1000];
        let mut aux = vec![0u8; 1000];
        parallel_fill_rows(
            &mut data,
            &mut aux,
            1,
            4,
            || {
                builds.fetch_add(1, Ordering::SeqCst);
            },
            |(), _, _, _| {},
        );
        let n = builds.load(Ordering::SeqCst);
        assert!((1..=4).contains(&n), "built {n} states");
    }

    #[test]
    fn fill_rows_chunked_matches_sequential() {
        for threads in [1, 2, 3, 4, 8] {
            for rows in [0usize, 1, 63, 64, 65, 100, 500] {
                let width = 3;
                let mut data = vec![0usize; rows * width];
                let mut aux = vec![0.0f64; rows];
                let chunks = Mutex::new(Vec::new());
                let timings = parallel_fill_rows_chunked(
                    &mut data,
                    &mut aux,
                    width,
                    threads,
                    || (),
                    |(), base, chunk_data, chunk_aux| {
                        assert_eq!(chunk_data.len(), chunk_aux.len() * width);
                        chunks.lock().unwrap().push((base, chunk_aux.len()));
                        for (k, slot) in chunk_aux.iter_mut().enumerate() {
                            let i = base + k;
                            for (j, cell) in chunk_data[k * width..(k + 1) * width]
                                .iter_mut()
                                .enumerate()
                            {
                                *cell = i * width + j;
                            }
                            *slot = i as f64;
                        }
                    },
                );
                let case = format!("threads={threads} rows={rows}");
                assert!(data.iter().enumerate().all(|(j, &v)| v == j), "{case}");
                assert!(aux.iter().enumerate().all(|(i, &v)| v == i as f64));
                if rows == 0 {
                    assert!(timings.is_empty(), "{case}");
                    continue;
                }
                // Chunk indices are dense from 0, at most one per worker.
                assert!(timings.len() <= threads, "{case}");
                for (k, t) in timings.iter().enumerate() {
                    assert_eq!(t.chunk, k as u64, "{case}");
                }
                // Bases are contiguous in chunk order and cover every row.
                let mut chunks = chunks.into_inner().unwrap();
                chunks.sort_unstable();
                let mut next = 0;
                for (&(base, len), t) in chunks.iter().zip(&timings) {
                    assert_eq!(base, next, "gap or overlap at {base}: {case}");
                    assert_eq!(len as u64, t.len, "{case}");
                    next += len;
                }
                assert_eq!(chunks.len(), timings.len(), "{case}");
                assert_eq!(next, rows, "{case}");
                let first = if threads == 1 || rows < parallel_threshold() {
                    rows
                } else {
                    rows.div_ceil(threads)
                };
                assert_eq!(timings[0].len, first as u64, "{case}");
            }
        }
    }

    #[test]
    fn fill_rows_chunked_small_input_is_one_chunk() {
        let rows = parallel_threshold() - 1;
        let mut data = vec![0u8; rows];
        let mut aux = vec![0u8; rows];
        let timings =
            parallel_fill_rows_chunked(&mut data, &mut aux, 1, 8, || (), |(), _, _, _| {});
        assert_eq!(timings.len(), 1, "inline path must report one chunk");
        assert_eq!(timings[0].len, rows as u64);
    }

    #[test]
    #[should_panic(expected = "rows × width")]
    fn fill_rows_chunked_rejects_mismatched_buffers() {
        let mut data = vec![0usize; 10];
        let mut aux = vec![0.0f64; 4];
        parallel_fill_rows_chunked(&mut data, &mut aux, 3, 2, || (), |(), _, _, _| {});
    }

    #[test]
    #[should_panic(expected = "rows × width")]
    fn fill_rows_rejects_mismatched_buffers() {
        let mut data = vec![0usize; 10];
        let mut aux = vec![0.0f64; 4];
        parallel_fill_rows(&mut data, &mut aux, 3, 2, || (), |(), _, _, _| {});
    }

    #[test]
    #[should_panic(expected = "item 150 failed")]
    fn map_worker_panic_reaches_the_caller() {
        parallel_map(200, 2, |i| {
            if i == 150 {
                panic!("item {i} failed");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "chunk at row 100 failed")]
    fn fill_rows_chunked_worker_panic_reaches_the_caller() {
        let mut data = vec![0u8; 200];
        let mut aux = vec![0u8; 200];
        parallel_fill_rows_chunked(
            &mut data,
            &mut aux,
            1,
            2,
            || (),
            |(), base, _, _| {
                if base > 0 {
                    panic!("chunk at row {base} failed");
                }
            },
        );
    }

    #[test]
    fn small_input_runs_inline() {
        // Can't observe threads directly, but results must still be right
        // below the threshold.
        let got = parallel_map(parallel_threshold() - 1, 8, |i| i + 1);
        assert_eq!(got.len(), parallel_threshold() - 1);
        assert_eq!(got[0], 1);
    }

    #[test]
    fn zero_threads_clamped() {
        let got = parallel_map(100, 0, |i| i);
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn timed_map_matches_sequential_and_covers_len() {
        for threads in [1, 4] {
            for len in [0, 10, 64, 1000] {
                let (got, timings) = parallel_map_timed(len, threads, |i| i * 3);
                let want: Vec<usize> = (0..len).map(|i| i * 3).collect();
                assert_eq!(got, want, "threads={threads} len={len}");
                let covered: u64 = timings.iter().map(|t| t.len).sum();
                assert_eq!(covered, len as u64, "timings must cover all items");
                if len == 0 {
                    assert!(timings.is_empty());
                }
                // Chunk indices are dense from zero.
                for (i, t) in timings.iter().enumerate() {
                    assert_eq!(t.chunk, i as u64);
                }
            }
        }
    }

    #[test]
    fn timed_map_spawns_multiple_chunks_for_large_input() {
        let (_, timings) = parallel_map_timed(1000, 4, |i| i);
        assert!(timings.len() > 1, "expected parallel dispatch");
    }

    /// Chunk lengths of one `parallel_fill_rows_chunked` dispatch over
    /// `rows` rows of width 1, checking that chunk indices are dense.
    fn chunk_lens(rows: usize, threads: usize) -> Vec<u64> {
        let mut data = vec![0u8; rows];
        let mut aux = vec![0u8; rows];
        let timings =
            parallel_fill_rows_chunked(&mut data, &mut aux, 1, threads, || (), |(), _, _, _| {});
        for (k, t) in timings.iter().enumerate() {
            assert_eq!(t.chunk, k as u64, "rows={rows} threads={threads}");
        }
        timings.iter().map(|t| t.len).collect()
    }

    #[test]
    fn chunk_boundaries_are_pinned() {
        // Worker k takes rows k·c..(k+1)·c with c = rows.div_ceil(threads);
        // traced runs report exactly these chunks.
        let cases: [(usize, usize, Vec<u64>); 7] = [
            (64, 3, vec![22, 22, 20]),
            (65, 8, [vec![9; 7], vec![2]].concat()),
            (100, 16, [vec![7; 14], vec![2]].concat()),
            (500, 4, vec![125; 4]),
            (501, 2, vec![251, 250]),
            (63, 8, vec![63]),
            (1000, 1, vec![1000]),
        ];
        for (rows, threads, want) in cases {
            assert_eq!(
                chunk_lens(rows, threads),
                want,
                "rows={rows} threads={threads}"
            );
        }
    }

    #[test]
    fn empty_range_no_chunks() {
        for threads in [0, 1, 4] {
            assert!(chunk_lens(0, threads).is_empty(), "threads={threads}");
        }
    }

    #[test]
    fn per_worker_gives_at_most_worker_chunks() {
        for rows in [64usize, 65, 100, 1000] {
            for workers in [1, 3, 8, 16] {
                let lens = chunk_lens(rows, workers);
                let case = format!("rows={rows} workers={workers}");
                assert!(lens.len() <= workers, "{case}");
                // Every chunk but the last holds exactly `c` rows.
                let c = rows.div_ceil(workers) as u64;
                let (last, full) = lens.split_last().unwrap();
                assert!(full.iter().all(|&len| len == c), "{case}");
                assert!((1..=c).contains(last), "{case}");
                assert_eq!(lens.iter().sum::<u64>(), rows as u64, "{case}");
            }
        }
    }

    #[test]
    fn zero_workers_clamped() {
        assert_eq!(chunk_lens(7, 0), vec![7]);
        assert_eq!(chunk_lens(500, 0), vec![500]);
    }

    #[test]
    fn single_item() {
        let mut data = vec![0usize; 1];
        let mut aux = vec![0usize; 1];
        let timings = parallel_fill_rows_chunked(
            &mut data,
            &mut aux,
            1,
            8,
            || (),
            |(), base, data, aux| {
                data[0] = base + 10;
                aux[0] = aux.len();
            },
        );
        assert_eq!(timings.len(), 1);
        assert_eq!((timings[0].chunk, timings[0].len), (0, 1));
        assert_eq!((data[0], aux[0]), (10, 1));
    }

    #[test]
    fn inline_path_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let ran_on = |rows: usize, threads: usize| {
            let ids = Mutex::new(Vec::new());
            let mut data = vec![0u8; rows];
            let mut aux = vec![0u8; rows];
            parallel_fill_rows_chunked(
                &mut data,
                &mut aux,
                1,
                threads,
                || (),
                |(), _, _, _| ids.lock().unwrap().push(std::thread::current().id()),
            );
            ids.into_inner().unwrap()
        };
        for (rows, threads) in [(63, 8), (500, 1), (500, 0)] {
            assert_eq!(
                ran_on(rows, threads),
                vec![caller],
                "rows={rows} threads={threads}"
            );
        }
        let mut threaded = ran_on(500, 4);
        threaded.sort_unstable_by_key(|id| format!("{id:?}"));
        threaded.dedup();
        assert!(threaded.len() > 1, "500 rows on 4 threads must fork");
    }

    #[test]
    fn batch_runs_every_job_once() {
        for threads in [1, 2, 4, 7] {
            let visits: Vec<AtomicUsize> = (0..300).map(|_| AtomicUsize::new(0)).collect();
            let mut data = vec![0u8; 300];
            let mut aux = vec![0u8; 300];
            parallel_fill_rows(
                &mut data,
                &mut aux,
                1,
                threads,
                || (),
                |(), i, _, _| {
                    visits[i].fetch_add(1, Ordering::SeqCst);
                },
            );
            assert!(
                visits.iter().all(|v| v.load(Ordering::SeqCst) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let calls = AtomicUsize::new(0);
        let got: Vec<usize> = parallel_map(0, 2, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert!(got.is_empty());
        let timings = parallel_fill_rows::<u8, u8, (), _, _>(
            &mut [],
            &mut [],
            3,
            2,
            || (),
            |(), _, _, _| {
                calls.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert!(timings.is_empty());
        assert_eq!(calls.load(Ordering::SeqCst), 0, "no row means no call");
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let (got, timings) = parallel_map_timed(100, 0, |i| i * 2);
        assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(timings.len(), 1);
        assert_eq!((timings[0].chunk, timings[0].len), (0, 100));
    }

    #[test]
    fn jobs_run_concurrently() {
        // 256 rows on 4 threads are 4 chunks; each waits until all 4 have
        // started, which only happens if they truly run at the same time.
        // The deadline turns a serial regression into a failure, not a hang.
        let started = AtomicUsize::new(0);
        let met = AtomicUsize::new(0);
        let mut data = vec![0u8; 256];
        let mut aux = vec![0u8; 256];
        let timings = parallel_fill_rows_chunked(
            &mut data,
            &mut aux,
            1,
            4,
            || (),
            |(), _, _, _| {
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + std::time::Duration::from_secs(10);
                while started.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                if started.load(Ordering::SeqCst) == 4 {
                    met.fetch_add(1, Ordering::SeqCst);
                }
            },
        );
        assert_eq!(timings.len(), 4);
        assert_eq!(met.load(Ordering::SeqCst), 4, "chunks did not overlap");
    }

    #[test]
    fn fill_reuses_buffer() {
        let mut data = vec![0usize; 500];
        let mut aux = vec![0u8; 500];
        parallel_fill_rows(
            &mut data,
            &mut aux,
            1,
            4,
            || (),
            |(), i, row, _| row[0] = i + 1,
        );
        assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
        // Second pass over the same buffer overwrites every row.
        parallel_fill_rows(
            &mut data,
            &mut aux,
            1,
            4,
            || (),
            |(), i, row, _| row[0] = 2 * i,
        );
        assert!(data.iter().enumerate().all(|(i, &v)| v == 2 * i));
    }

    #[test]
    fn fill_rows_chunked_builds_one_state_per_chunk() {
        for (rows, threads) in [(0, 4), (10, 4), (1000, 1), (1000, 3), (1000, 16)] {
            let builds = AtomicUsize::new(0);
            let mut data = vec![0u8; rows];
            let mut aux = vec![0u8; rows];
            let timings = parallel_fill_rows_chunked(
                &mut data,
                &mut aux,
                1,
                threads,
                || builds.fetch_add(1, Ordering::SeqCst),
                |_, _, _, _| {},
            );
            // The inline path builds its one state even for an empty buffer.
            let want = timings.len().max(1);
            assert_eq!(
                builds.load(Ordering::SeqCst),
                want,
                "rows={rows} threads={threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "item 900 failed")]
    fn map_timed_worker_panic_reaches_the_caller() {
        parallel_map_timed(1000, 4, |i| {
            if i == 900 {
                panic!("item {i} failed");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "row 70 failed")]
    fn fill_rows_worker_panic_reaches_the_caller() {
        let mut data = vec![0u8; 128];
        let mut aux = vec![0u8; 128];
        parallel_fill_rows(
            &mut data,
            &mut aux,
            1,
            2,
            || (),
            |(), i, _, _| {
                if i == 70 {
                    panic!("row {i} failed");
                }
            },
        );
    }
}
