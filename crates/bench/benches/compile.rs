//! Experiments E3/E6 — Sections 6–7: compilation (Lemma 1, Theorem 1,
//! Theorem 4) is exponential-time preprocessing, amortized over documents.
//!
//! * `hre_compile/d` — Lemma 1 on nesting chains `a⟨a⟨…b*…⟩⟩` of depth d
//!   (linear-time construction, per the paper);
//! * `hre_determinize/w` — Lemma 1 + Theorem 1 on alternation fans
//!   `(a₁⟨…⟩|…|a_w⟨…⟩)*` (the potentially exponential step);
//! * `phr_compile/t` — Theorem 4 with t triplets (the shared product M,
//!   the ≡ classes, and N), every triplet distinct;
//! * `phr_compile/figure_before_table` — Theorem 4 on the benchmark query,
//!   whose eight sibling slots hold two distinct expressions: the row that
//!   shows each distinct component being compiled once;
//! * `decompile/…` — Lemma 2 on the paper's M₀ (HA → HRE).

use hedgex_testkit::{Bench, BenchmarkId};

use hedgex_core::hre::parse_hre;
use hedgex_core::{compile_hre, decompile_dha, CompiledPhr};
use hedgex_ha::determinize;
use hedgex_ha::paper::m0;
use hedgex_hedge::Alphabet;

fn nested_hre(depth: usize) -> String {
    let mut s = String::from("b*");
    for _ in 0..depth {
        s = format!("a<{s} b?>");
    }
    s
}

fn fan_hre(width: usize) -> String {
    let alts: Vec<String> = (0..width).map(|i| format!("s{i}<b*>")).collect();
    format!("({})*", alts.join("|"))
}

fn bench_compile(c: &mut Bench) {
    let mut group = c.benchmark_group("E6_compile");
    group.sample_size(10);
    for d in [2usize, 4, 8, 16, 32] {
        let src = nested_hre(d);
        group.bench_with_input(BenchmarkId::new("hre_compile", d), &src, |b, src| {
            b.iter_with_setup(
                || {
                    let mut ab = Alphabet::new();
                    parse_hre(src, &mut ab).unwrap()
                },
                |e| std::hint::black_box(compile_hre(&e).num_states()),
            )
        });
    }
    for w in [2usize, 4, 8, 16] {
        let src = fan_hre(w);
        group.bench_with_input(BenchmarkId::new("hre_determinize", w), &src, |b, src| {
            b.iter_with_setup(
                || {
                    let mut ab = Alphabet::new();
                    compile_hre(&parse_hre(src, &mut ab).unwrap())
                },
                |nha| std::hint::black_box(determinize(&nha).dha.num_states()),
            )
        });
    }
    for t in [1usize, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::new("phr_compile", t), &t, |b, &t| {
            b.iter_with_setup(
                || {
                    let mut ab = Alphabet::new();
                    hedgex_bench::varied_phr(t, &mut ab)
                },
                |phr| std::hint::black_box(CompiledPhr::compile(&phr).m.num_states()),
            )
        });
    }
    group.bench_function("phr_compile/figure_before_table", |b| {
        b.iter_with_setup(
            || {
                let mut ab = Alphabet::new();
                hedgex_bench::figure_before_table_phr(&mut ab)
            },
            |phr| std::hint::black_box(CompiledPhr::compile(&phr).m.num_states()),
        )
    });
    group.bench_function("decompile_m0", |b| {
        b.iter_with_setup(
            || {
                let mut ab = Alphabet::new();
                (m0(&mut ab), ab)
            },
            |(dha, mut ab)| std::hint::black_box(decompile_dha(&dha, &mut ab).size()),
        )
    });
    group.finish();
}

fn main() {
    let mut c = Bench::from_env();
    bench_compile(&mut c);
}
