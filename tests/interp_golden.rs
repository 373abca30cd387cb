//! Pinned interpreter output: the `Debug` image of every `Run` over a
//! fixed set of programs and inputs, hashed and compared against a
//! literal.
//!
//! The snapshot tests compare resumed runs with fresh runs of the same
//! build, and the campaign fingerprints see only verdicts. A change to
//! the interpreter that both paths share — a different mem-error offset,
//! branch tag, allocation record or step count — passes both. This test
//! catches it: any byte of any run's `Debug` text that moves changes the
//! hash.
//!
//! Inputs: each unit's seed plus single-byte mutations of up to six of
//! its fields (checksums repaired, so the mutations reach the code behind
//! them), under the `Concrete`, `Taint` and `Symbolic::all_bytes()`
//! policies. Programs: two small forged suites (8 apps × 6 sites, forge
//! seed `0xD10D_E5EE`; depth 3 with `site_work` 300, and depth 8 with no
//! work), the five paper apps, and one hand-written program that drives
//! every heap path the others reach rarely: overflowed and tagged bytes
//! stored and loaded back, red-zone accesses, use-after-free, double
//! free, a sparse (> 1 MiB) block, and a wild write.
//!
//! The three policies' runs of each input must also agree with each
//! other: the same outcome, steps, memory errors, branch directions and
//! allocation records; each symbolic allocation size, evaluated on the
//! input, must give the concrete size and overflow flag; and its input
//! bytes must lie within the size's taint labels.

use std::fmt::Write as _;

use diode::format::{Endian, FormatDesc};
use diode::interp::{run, Concrete, MachineConfig, Run, Symbolic, Taint};
use diode::lang::Program;
use diode::obs::fnv64_hex;
use diode::synth::{forge, SynthConfig};

/// FNV-64 of every run's `Debug` text, captured before the interpreter's
/// value and memory layout changed.
const PINNED: &str = "fnv64:0b06a8ecd2d7276e";

/// Heap edge cases: the bytes at `in[1..3]` reach two allocation sizes
/// through memory, so their overflow flag and shadow tag must survive a
/// store and a load.
const HEAP_EDGES: &str = r#"
fn fill(p, n, v) {
    i = 0;
    while i < n { p[i] = v; i = i + 1; }
    return i;
}
fn main() {
    n = zext32(in[0]);
    buf = alloc("edge@1", n + 2);
    k = fill(buf, n + 6, in[1] * in[2]);
    a = buf[1];
    b = buf[n + 3];
    m = alloc("edge@2", zext32(a) * 16777216 + zext32(b) + k);
    big = alloc("edge@3", 1073741824 + zext32(in[3]));
    big[zext32(in[3]) * 4096] = a;
    c = big[zext32(in[3]) * 4096];
    d = big[7];
    s = alloc("edge@4", zext32(c) + zext32(d) + 1);
    free(buf);
    free(buf);
    buf[0] = 1u8;
    e = buf[0];
    w = alloc("edge@5", 8 + zext32(e));
    w[4096 + 8 * zext32(in[4])] = 1u8;
}
"#;

/// Fields mutated per unit, at most.
const MUTATED_FIELDS: usize = 6;

/// The seed and its single-byte mutations: the first byte of up to
/// [`MUTATED_FIELDS`] fields (spread over the field map) complemented,
/// then every checksum repaired.
fn inputs(format: &FormatDesc, seed: &[u8]) -> Vec<Vec<u8>> {
    let fields = format.fields();
    let step = fields.len().div_ceil(MUTATED_FIELDS).max(1);
    let mut out = vec![seed.to_vec()];
    for field in fields.iter().step_by(step) {
        let Some(&byte) = seed.get(field.offset as usize) else {
            continue;
        };
        out.push(format.reconstruct(seed, [(field.offset, !byte)]));
    }
    out
}

/// What every policy's run must agree on: the run without its shadow
/// tags.
fn untagged<T, C>(r: &Run<T, C>) -> String {
    let branches: Vec<_> = r.branches.iter().map(|b| (b.label, b.taken)).collect();
    let allocs: Vec<_> = r
        .allocs
        .iter()
        .map(|a| (a.label, a.size, a.size_ovf, a.failed, a.branches_before))
        .collect();
    format!(
        "{:?}, {} steps, {:?}, {branches:?}, {allocs:?}",
        r.outcome, r.steps, r.mem_errors
    )
}

/// Appends the `Debug` text of all three policies' runs of `program` on
/// every input, checking that they agree; returns how many runs it took.
fn image(
    out: &mut String,
    name: &str,
    program: &Program,
    format: &FormatDesc,
    seed: &[u8],
) -> usize {
    let config = MachineConfig::default();
    let mut runs = 0;
    for (i, input) in inputs(format, seed).iter().enumerate() {
        let concrete = run(program, input, Concrete, &config);
        let taint = run(program, input, Taint, &config);
        let symbolic = run(program, input, Symbolic::all_bytes(), &config);
        let at = format!("{name} input {i}");
        assert_eq!(untagged(&taint), untagged(&concrete), "{at}: taint");
        assert_eq!(untagged(&symbolic), untagged(&concrete), "{at}: symbolic");
        let byte = |offset: u32| input.get(offset as usize).copied().unwrap_or(0);
        let sizes = concrete.allocs.iter().zip(&taint.allocs);
        for ((c, t), s) in sizes.zip(&symbolic.allocs) {
            let Some(size) = &s.size_tag else { continue };
            assert_eq!(
                size.eval_overflow(&byte),
                (c.size, c.size_ovf),
                "{at}: symbolic size {size} of {}",
                c.site
            );
            for b in size.input_bytes() {
                assert!(
                    t.size_tag.labels().contains(b),
                    "{at}: {} size reads byte {b} outside its taint {:?}",
                    c.site,
                    t.size_tag.labels()
                );
            }
        }
        let _ = writeln!(out, "== {at}");
        let _ = writeln!(out, "{concrete:?}");
        let _ = writeln!(out, "{taint:?}");
        let _ = writeln!(out, "{symbolic:?}");
        runs += 3;
    }
    runs
}

#[test]
fn interpreter_runs_match_the_pinned_image() {
    let mut text = String::new();
    let mut runs = 0;
    for (depth, site_work) in [(3, 300), (8, 0)] {
        let suite = forge(&SynthConfig {
            apps: 8,
            min_sites: 6,
            max_sites: 6,
            branch_depth: depth,
            site_work,
            rng_seed: 0xD10D_E5EE,
            ..SynthConfig::default()
        });
        for app in &suite.apps {
            for seed in &app.seeds {
                runs += image(&mut text, &app.name, &app.program, &app.format, seed);
            }
        }
    }
    for app in diode::apps::all_apps() {
        runs += image(&mut text, app.name, &app.program, &app.format, &app.seed);
    }
    let edges = diode::lang::parse(HEAP_EDGES).expect("heap-edge program parses");
    let mut format = FormatDesc::new("edges");
    for (i, path) in ["n", "x", "y", "z", "w"].into_iter().enumerate() {
        format.add_field(path, i as u32, 1, Endian::Big);
    }
    for (i, seed) in [[4, 16, 17, 5, 0], [4, 3, 5, 0, 0], [0, 200, 200, 1, 1]]
        .iter()
        .enumerate()
    {
        runs += image(&mut text, &format!("edges{i}"), &edges, &format, seed);
    }
    assert_eq!(
        fnv64_hex(text.as_bytes()),
        PINNED,
        "{runs} runs, {} bytes of Debug text",
        text.len()
    );
}
