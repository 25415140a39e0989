//! Property tests: parallel results must equal sequential results for every
//! input shape and thread count.

use proptest::prelude::*;
use zenesis_par::{par_map, par_map_range, par_reduce_range, par_rows, ThreadsGuard};

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
    fn par_reduce_sum_equals_seq(n in 0usize..2000, threads in 1usize..6) {
        let _g = ThreadsGuard::new(threads);
        let seq: u64 = (0..n as u64).map(|i| i.wrapping_mul(i)).sum();
        let par = par_reduce_range(n, || 0u64, |a, i| a + (i as u64).wrapping_mul(i as u64), |a, b| a + b);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn par_reduce_max_equals_seq(v in prop::collection::vec(any::<i32>(), 1..800), threads in 1usize..6) {
        let _g = ThreadsGuard::new(threads);
        let seq = *v.iter().max().unwrap();
        let par = par_reduce_range(v.len(), || i32::MIN, |a, i| a.max(v[i]), |a, b| a.max(b));
        prop_assert_eq!(seq, par);
    }

    /// `Vec` append is associative but not commutative: only a combine in
    /// chunk order reproduces the sequential fold.
    #[test]
    fn par_reduce_combines_in_index_order(n in 0usize..600, t in 0usize..3) {
        let _g = ThreadsGuard::new([1, 2, 8][t]);
        let par = par_reduce_range(
            n,
            Vec::new,
            |mut acc, i| {
                acc.push(i);
                acc
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        prop_assert_eq!(par, (0..n).collect::<Vec<_>>());
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
