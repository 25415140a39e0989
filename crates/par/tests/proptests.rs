//! Property tests: parallel results must equal sequential results for every
//! input shape and thread count.

use proptest::prelude::*;
use zenesis_par::{par_map, par_map_range, par_rows, ThreadsGuard};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_map_equals_seq(v in prop::collection::vec(any::<i32>(), 0..500), threads in 1usize..6) {
        let _g = ThreadsGuard::new(threads);
        let seq: Vec<i64> = v.iter().map(|&x| x as i64 * 7 - 3).collect();
        let par = par_map(&v, |&x| x as i64 * 7 - 3);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn par_rows_covers_buffer(rows in 1usize..40, row_len in 1usize..40, threads in 1usize..6) {
        let _g = ThreadsGuard::new(threads);
        let mut buf = vec![0u32; rows * row_len];
        par_rows(&mut buf, row_len, |row_start, band| {
            for (r, row) in band.chunks_mut(row_len).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = ((row_start + r) * 1000 + c) as u32;
                }
            }
        });
        for r in 0..rows {
            for c in 0..row_len {
                prop_assert_eq!(buf[r * row_len + c], (r * 1000 + c) as u32);
            }
        }
    }

    #[test]
    fn par_map_range_no_aliasing(n in 0usize..3000, threads in 1usize..6) {
        let _g = ThreadsGuard::new(threads);
        let out = par_map_range(n, |i| i);
        prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
    }
}
