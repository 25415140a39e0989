//! Group commit, counted: a volume run with a checkpoint journal appends
//! a header, one stage-1 record and one mask record per slice, and makes
//! them durable with fewer `fsync`s than records. The slice workers only
//! write; the run's calling thread commits on a timer while they run and
//! once more before it returns, so a sync covers every record written
//! since the last one.
//!
//! The `checkpoint.*` counters are process-wide, so this file holds
//! exactly one test.

use zenesis_core::{CheckpointSpec, Zenesis, ZenesisConfig};
use zenesis_data::{generate_volume, SampleKind};
use zenesis_par::{CancelToken, ThreadsGuard};

const DEPTH: usize = 48;

#[test]
fn a_journaled_run_syncs_less_often_than_it_appends() {
    let v = generate_volume(SampleKind::Crystalline, 64, DEPTH, 7, &[5, 30]);
    let z = Zenesis::new(ZenesisConfig::default());
    let count = |name: &str| zenesis_obs::counter(name.to_string()).get();
    for threads in [1, 2] {
        let _threads = ThreadsGuard::new(threads);
        let dir = std::env::temp_dir().join(format!(
            "zenesis-journal-commit-{threads}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CheckpointSpec::new(&dir);
        let (writes, syncs) = (count("checkpoint.write"), count("checkpoint.sync"));
        let r = z
            .segment_volume_streamed(
                &v.volume,
                "needle-like crystalline catalyst",
                &CancelToken::new(),
                Some(&spec),
            )
            .expect("healthy volume completes");
        let (writes, syncs) = (
            count("checkpoint.write") - writes,
            count("checkpoint.sync") - syncs,
        );
        assert_eq!(r.masks.len(), DEPTH);
        assert_eq!(writes, 1 + 2 * DEPTH as u64, "{threads} threads");
        assert!(
            (1..writes).contains(&syncs),
            "{threads} threads: {syncs} syncs for {writes} records"
        );
        assert_eq!(count("checkpoint.sync.error"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
