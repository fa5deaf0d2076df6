//! Property-based tests for the parallel substrate: parallel results
//! must always equal their sequential counterparts.

use match_par::*;
use proptest::prelude::*;
use std::sync::Mutex;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn map_equals_sequential(len in 0usize..2000, threads in 0usize..12, mul in 1u64..1000) {
        let got = parallel_map(len, threads, |i| i as u64 * mul);
        let want: Vec<u64> = (0..len as u64).map(|i| i * mul).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn fill_rows_equals_sequential(rows in 0usize..400, width in 0usize..5, threads in 0usize..12) {
        let mut data = vec![0usize; rows * width];
        let mut aux = vec![0usize; rows];
        let timings = parallel_fill_rows(&mut data, &mut aux, width, threads, || (), |(), i, row, a| {
            for (k, cell) in row.iter_mut().enumerate() {
                *cell = i * width + k;
            }
            *a = i;
        });
        prop_assert!(data.iter().enumerate().all(|(j, &v)| v == j));
        prop_assert!(aux.iter().enumerate().all(|(i, &v)| v == i));
        prop_assert_eq!(timings.iter().map(|t| t.len).sum::<u64>(), rows as u64);
        prop_assert!(timings.len() <= threads.max(1));
    }

    #[test]
    fn map_timed_equals_sequential(len in 0usize..300, threads in 0usize..6) {
        let (got, timings) = parallel_map_timed(len, threads, |i| i * 7);
        let want: Vec<usize> = (0..len).map(|i| i * 7).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(timings.iter().map(|t| t.len).sum::<u64>(), len as u64);
    }

    #[test]
    fn chunks_cover_exactly(rows in 0usize..2000, width in 0usize..3, threads in 0usize..20) {
        let mut data = vec![0u8; rows * width];
        let mut aux = vec![0u8; rows];
        let chunks = Mutex::new(Vec::new());
        let timings = parallel_fill_rows_chunked(&mut data, &mut aux, width, threads, || (), |(), base, chunk_data, chunk_aux| {
            assert_eq!(chunk_data.len(), chunk_aux.len() * width);
            chunks.lock().unwrap().push((base, chunk_aux.len()));
        });
        let mut chunks = chunks.into_inner().unwrap();
        chunks.sort_unstable();
        let mut next = 0usize;
        for &(base, len) in &chunks {
            prop_assert_eq!(base, next);
            prop_assert!(len > 0 || rows == 0);
            next += len;
        }
        prop_assert_eq!(next, rows);
        prop_assert!(timings.len() <= threads.max(1));
        if rows > 0 {
            prop_assert_eq!(timings.len(), chunks.len());
        }
    }

    #[test]
    fn fill_rows_chunked_equals_sequential(rows in 0usize..400, width in 1usize..4, threads in 0usize..12) {
        let mut data = vec![0usize; rows * width];
        let mut aux = vec![0usize; rows];
        parallel_fill_rows_chunked(&mut data, &mut aux, width, threads, || (), |(), base, chunk_data, chunk_aux| {
            for (k, cell) in chunk_data.iter_mut().enumerate() {
                *cell = base * width + k;
            }
            for (k, a) in chunk_aux.iter_mut().enumerate() {
                *a = base + k;
            }
        });
        prop_assert!(data.iter().enumerate().all(|(j, &v)| v == j));
        prop_assert!(aux.iter().enumerate().all(|(i, &v)| v == i));
    }
}
