//! The no-code contract: drive the platform purely through JSON job
//! specs, as the paper's web UI does. No Rust API calls beyond
//! `run_job_json(&str) -> String`.
//!
//! ```text
//! cargo run --release --example nocode_job
//! ```

use zenesis::core::job::run_job_json;

fn main() {
    // Mode A: single slice, natural-language prompt.
    let interactive = r#"{
        "mode": "interactive",
        "input": {"source": "phantom_slice", "kind": "crystalline", "seed": 42},
        "prompt": "needle-like crystalline catalyst"
    }"#;

    // Mode B: a small volume with an injected glitch.
    let batch = r#"{
        "mode": "batch",
        "input": {
            "source": "phantom_volume",
            "kind": "amorphous",
            "seed": 7,
            "depth": 6,
            "side": 96,
            "outlier_slices": [3]
        },
        "prompt": "catalyst particles"
    }"#;

    // Malformed request: the platform answers with a structured error.
    let broken = r#"{"mode": "interactive", "prompt": 42}"#;

    for (name, job) in [
        ("mode A", interactive),
        ("mode B", batch),
        ("broken", broken),
    ] {
        println!("== {name} request ==");
        println!("{}", job.trim());
        println!("-- response --");
        println!("{}\n", run_job_json(job));
    }
}
