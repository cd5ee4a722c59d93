//! Concrete-executor benchmark: what does the superblock executor buy?
//!
//! For each bundled NIC driver, runs the pure symbolic engine and the pure
//! fuzzing phase of the hybrid pipeline (escalation and symbolic quanta
//! off), and compares instruction throughput: symbolic instructions per
//! second of the full engine vs concrete instructions per second of the
//! fuzz loop (scheduling, mutation, snapshot-reset, and kernel dispatch
//! included — this is the *usable* executor rate, not a dispatch
//! microbenchmark).
//!
//! Acceptance gates:
//! 1. The concrete executor sustains at least 50x the symbolic
//!    instruction rate on every bundled NIC driver.
//! 2. Hybrid reaches its first bug no later (in scheduling quanta) than
//!    the symbolic-only run: the canned corpus finds a concrete bug
//!    during the first fuzz batch, before the first symbolic quantum.
//!
//! It also times the two ways to get a runner ready for an execution:
//! building a fresh `ConcreteRunner` and resetting a used one from its
//! post-load snapshot. Replay builds one runner per bug; the fuzz loop
//! resets one runner per execution.
//!
//! `--smoke` runs the pcnet subset for CI and still writes the JSON.

use std::time::Instant;

use ddt_core::replay::ConcreteRunner;
use ddt_core::{Ddt, DdtConfig, DriverUnderTest, FuzzConfig};
use serde::Deserialize;

// Mirror of the emitted JSON, deserialized back as the well-formedness
// check (the vendored serde has no free-form `Value` parser).
#[derive(Deserialize)]
#[allow(dead_code)]
struct BenchFile {
    bench: String,
    smoke: bool,
    min_speedup_gate: u64,
    drivers: Vec<BenchDriver>,
}

#[derive(Deserialize)]
#[allow(dead_code)]
struct BenchDriver {
    driver: String,
    symbolic_insns: u64,
    symbolic_wall_ms: u64,
    symbolic_insns_per_sec: u64,
    symbolic_bugs: u64,
    symbolic_first_bug_quanta: u64,
    concrete_execs: u64,
    concrete_insns: u64,
    concrete_wall_ms: u64,
    concrete_insns_per_sec: u64,
    concrete_blocks: u64,
    concrete_bugs: u64,
    speedup: u64,
    hybrid_first_bug_quanta: u64,
    runner_new_ns: u64,
    runner_reset_ns: u64,
}

struct Row {
    driver: &'static str,
    sym_insns: u64,
    sym_wall_ms: u64,
    sym_rate: u64,
    sym_bugs: u64,
    sym_first_bug: u64,
    conc_execs: u64,
    conc_insns: u64,
    conc_wall_ms: u64,
    conc_rate: u64,
    conc_blocks: u64,
    conc_bugs: u64,
    speedup: u64,
    hybrid_first_bug: u64,
    new_ns: u64,
    reset_ns: u64,
}

/// Instructions per second with millisecond walls clamped to 1 (the fuzz
/// phase of a small driver finishes in single-digit milliseconds).
fn rate(insns: u64, wall_ms: u64) -> u64 {
    insns * 1000 / wall_ms.max(1)
}

/// Fastest per-call time of `f` in nanoseconds, over five rounds of 2000
/// calls (the fastest round is the cost outside host noise).
fn fastest_ns(mut f: impl FnMut()) -> u64 {
    const CALLS: u32 = 2000;
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t.elapsed().as_nanos() as u64 / CALLS as u64
        })
        .min()
        .unwrap_or(0)
}

fn bench_driver(name: &'static str) -> Row {
    let spec = ddt_drivers::driver_by_name(name).expect("bundled driver");
    let dut = DriverUnderTest::from_spec(&spec);
    let tool = Ddt::new(DdtConfig::default());

    let sym = tool.test(&dut);

    // Pure fuzzing: no escalation, no symbolic quanta, no drain. Enough
    // volume that the per-run wall is tens of milliseconds.
    let fuzz_only = FuzzConfig {
        batches: 10,
        batch_size: 100,
        escalate: false,
        quanta_per_batch: 0,
        drain_frontier: false,
        ..FuzzConfig::default()
    };
    let conc = ddt_core::run_hybrid(&tool, &dut, &fuzz_only);

    // The full pipeline, for time-to-first-bug: the canned seeds find a
    // concrete bug before the first symbolic quantum runs.
    let hybrid = ddt_core::run_hybrid(&tool, &dut, &FuzzConfig::default());

    let hw = vec![1, 1, 1, 1];
    let new_ns = fastest_ns(|| {
        std::hint::black_box(ConcreteRunner::new(&dut, hw.clone()));
    });
    let mut runner = ConcreteRunner::new(&dut, hw.clone());
    let reset_ns = fastest_ns(|| runner.reset(&dut, hw.clone()));

    let sym_rate = rate(sym.stats.insns, sym.stats.wall_ms);
    let conc_rate = rate(conc.stats.fuzz_insns, conc.stats.fuzz_wall_ms);
    Row {
        driver: name,
        sym_insns: sym.stats.insns,
        sym_wall_ms: sym.stats.wall_ms,
        sym_rate,
        sym_bugs: sym.bugs.len() as u64,
        sym_first_bug: sym.stats.quanta_to_first_bug,
        conc_execs: conc.stats.fuzz_execs,
        conc_insns: conc.stats.fuzz_insns,
        conc_wall_ms: conc.stats.fuzz_wall_ms,
        conc_rate,
        conc_blocks: conc.stats.concrete_blocks,
        conc_bugs: conc.stats.concrete_bugs,
        speedup: conc_rate / sym_rate.max(1),
        hybrid_first_bug: hybrid.stats.quanta_to_first_bug,
        new_ns,
        reset_ns,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    const GATE: u64 = 50;
    let drivers: &[&'static str] =
        if smoke { &["pcnet"] } else { &["pro1000", "pcnet", "rtl8029"] };

    println!("Concrete executor vs symbolic engine (bundled NIC drivers)");
    println!();
    println!(
        "  {:<10} {:>12} {:>12} {:>9} {:>12} {:>12} {:>9} {:>8} {:>8} {:>8}",
        "Driver", "Sym insn/s", "Conc insn/s", "Speedup", "Conc execs", "Conc blocks", "1st(sym)",
        "1st(hyb)", "new ns", "reset ns"
    );
    let mut rows = Vec::new();
    for &name in drivers {
        let r = bench_driver(name);
        println!(
            "  {:<10} {:>12} {:>12} {:>8}x {:>12} {:>12} {:>9} {:>8} {:>8} {:>8}",
            r.driver,
            r.sym_rate,
            r.conc_rate,
            r.speedup,
            r.conc_execs,
            r.conc_blocks,
            r.sym_first_bug,
            r.hybrid_first_bug,
            r.new_ns,
            r.reset_ns
        );
        rows.push(r);
    }
    println!();

    for r in &rows {
        assert!(
            r.speedup >= GATE,
            "{}: concrete executor only {}x the symbolic rate (gate {}x): \
             {} insns/{} ms vs {} insns/{} ms",
            r.driver,
            r.speedup,
            GATE,
            r.conc_insns,
            r.conc_wall_ms,
            r.sym_insns,
            r.sym_wall_ms
        );
        assert!(r.conc_blocks > 0, "{}: fuzzing covered no blocks", r.driver);
        // Every bundled NIC driver has Table 2 bugs, and the canned corpus
        // reaches at least one of them concretely — so the hybrid pipeline
        // reports first blood no later than the symbolic engine.
        assert!(r.sym_bugs > 0 && r.conc_bugs > 0, "{}: no bugs found", r.driver);
        assert!(
            r.hybrid_first_bug <= r.sym_first_bug,
            "{}: hybrid first bug at quantum {} vs symbolic {}",
            r.driver,
            r.hybrid_first_bug,
            r.sym_first_bug
        );
    }
    println!("  gate: all drivers >= {GATE}x and hybrid first-bug <= symbolic first-bug");
    println!();

    let driver_blobs: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"driver\": \"{}\",\n",
                    "      \"symbolic_insns\": {},\n",
                    "      \"symbolic_wall_ms\": {},\n",
                    "      \"symbolic_insns_per_sec\": {},\n",
                    "      \"symbolic_bugs\": {},\n",
                    "      \"symbolic_first_bug_quanta\": {},\n",
                    "      \"concrete_execs\": {},\n",
                    "      \"concrete_insns\": {},\n",
                    "      \"concrete_wall_ms\": {},\n",
                    "      \"concrete_insns_per_sec\": {},\n",
                    "      \"concrete_blocks\": {},\n",
                    "      \"concrete_bugs\": {},\n",
                    "      \"speedup\": {},\n",
                    "      \"hybrid_first_bug_quanta\": {},\n",
                    "      \"runner_new_ns\": {},\n",
                    "      \"runner_reset_ns\": {}\n",
                    "    }}"
                ),
                r.driver,
                r.sym_insns,
                r.sym_wall_ms,
                r.sym_rate,
                r.sym_bugs,
                r.sym_first_bug,
                r.conc_execs,
                r.conc_insns,
                r.conc_wall_ms,
                r.conc_rate,
                r.conc_blocks,
                r.conc_bugs,
                r.speedup,
                r.hybrid_first_bug,
                r.new_ns,
                r.reset_ns
            )
        })
        .collect();

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"concrete\",\n  \"smoke\": {},\n",
            "  \"min_speedup_gate\": {},\n  \"drivers\": [\n{}\n  ]\n}}\n"
        ),
        smoke,
        GATE,
        driver_blobs.join(",\n")
    );
    // Well-formedness check before writing: the CI job parses this file.
    let parsed: BenchFile = serde_json::from_str(&json).expect("bench JSON is well-formed");
    assert_eq!(parsed.bench, "concrete");
    assert_eq!(parsed.drivers.len(), drivers.len());
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_concrete.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("cannot write {out}: {e}"),
    }
}
