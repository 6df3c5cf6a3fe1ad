//! A shrinking property-test runner.
//!
//! Replaces `proptest` for this workspace. The moving parts:
//!
//! * [`Gen`] pairs a generator closure (`&mut Rng -> T`) with an optional
//!   shrinker (`&T -> Vec<T>`, candidates ordered smallest-first).
//! * [`forall`] runs a property over `cases` generated values. Each case
//!   draws its own seed from a SplitMix64 master stream, so a failing case
//!   is reproducible from its printed seed alone.
//! * On failure the runner greedily walks the shrink tree (bounded by
//!   [`Config::max_shrink_steps`]) and panics with both the original and
//!   the shrunk counterexample, plus a `HEDGEX_SEED=<n>` line that replays
//!   the failure.
//!
//! Reproducing a failure: `HEDGEX_SEED=<printed seed> cargo test <name>`
//! runs exactly one case with that seed (all `forall` calls in the process
//! use it, so filter to the failing test). `HEDGEX_CASES=<n>` overrides the
//! case count of every `forall` without recompiling.
//!
//! Properties return [`TestResult`]; use [`prop_assert!`](crate::prop_assert) /
//! [`prop_assert_eq!`](crate::prop_assert_eq) inside them to fail with context instead of
//! panicking (panics abort shrinking, `Err` drives it).

use std::fmt::Debug;
use std::rc::Rc;

use crate::rng::{Rng, SplitMix64};

/// A property either passes or fails with a message.
pub type TestResult = Result<(), String>;

/// Fail the enclosing property if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                format!($($arg)+),
                file!(),
                line!()
            ));
        }
    };
}

/// Fail the enclosing property if the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(, $($arg:tt)+)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}{} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                {
                    #[allow(unused_mut, unused_assignments)]
                    let mut extra = String::new();
                    $(extra = format!("\n  note: {}", format!($($arg)+));)?
                    extra
                },
                file!(),
                line!()
            ));
        }
    }};
}

/// The generation half of a [`Gen`].
type GenFn<T> = Rc<dyn Fn(&mut Rng) -> T>;
/// The shrinking half of a [`Gen`]: propose strictly simpler candidates.
type ShrinkFn<T> = Rc<dyn Fn(&T) -> Vec<T>>;

/// A value generator with an attached shrinker.
pub struct Gen<T> {
    generate: GenFn<T>,
    shrink: ShrinkFn<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            generate: Rc::clone(&self.generate),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// A generator with no shrinker.
    pub fn new(generate: impl Fn(&mut Rng) -> T + 'static) -> Self {
        Gen {
            generate: Rc::new(generate),
            shrink: Rc::new(|_| Vec::new()),
        }
    }

    /// Attach a shrinker: given a failing value, propose strictly simpler
    /// candidates, most aggressive first.
    pub fn with_shrink(self, shrink: impl Fn(&T) -> Vec<T> + 'static) -> Self {
        Gen {
            generate: self.generate,
            shrink: Rc::new(shrink),
        }
    }

    /// Generate one value.
    pub fn generate(&self, rng: &mut Rng) -> T {
        (self.generate)(rng)
    }

    /// Shrink candidates for a value.
    pub fn shrinks(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }
}

/// Pair two generators; shrinking alternates components.
pub fn zip2<A: Clone + 'static, B: Clone + 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    let (ga, gb) = (a.clone(), b.clone());
    Gen::new(move |rng| (ga.generate(rng), gb.generate(rng))).with_shrink(move |(x, y)| {
        let mut out: Vec<(A, B)> = a.shrinks(x).into_iter().map(|x2| (x2, y.clone())).collect();
        out.extend(b.shrinks(y).into_iter().map(|y2| (x.clone(), y2)));
        out
    })
}

/// Triple of generators; shrinking alternates components.
pub fn zip3<A: Clone + 'static, B: Clone + 'static, C: Clone + 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
) -> Gen<(A, B, C)> {
    let flat = zip2(zip2(a, b), c);
    Gen::new({
        let flat = flat.clone();
        move |rng| {
            let ((x, y), z) = flat.generate(rng);
            (x, y, z)
        }
    })
    .with_shrink(move |(x, y, z)| {
        flat.shrinks(&((x.clone(), y.clone()), z.clone()))
            .into_iter()
            .map(|((x2, y2), z2)| (x2, y2, z2))
            .collect()
    })
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run (`HEDGEX_CASES` overrides).
    pub cases: u32,
    /// Upper bound on accepted shrink steps.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            max_shrink_steps: 2048,
        }
    }
}

impl Config {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| s.trim().parse().ok())
}

/// A process-wide master seed: `HEDGEX_SEED` if set, else derived from the
/// wall clock (fresh exploration every run; failures print the case seed).
fn master_seed() -> (u64, bool) {
    if let Some(s) = env_u64("HEDGEX_SEED") {
        return (s, true);
    }
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED);
    (t, false)
}

/// Run `prop` over `cfg.cases` values drawn from `gen`. Panics with a
/// seed-reproducible, shrunk counterexample on failure.
pub fn forall<T: Debug + Clone + 'static>(
    name: &str,
    cfg: Config,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> TestResult,
) {
    let (seed, pinned) = master_seed();
    let cases = if pinned {
        1
    } else {
        env_u64("HEDGEX_CASES")
            .map(|n| n as u32)
            .unwrap_or(cfg.cases)
    };
    let mut master = SplitMix64::new(seed);
    for case in 0..cases {
        // When HEDGEX_SEED is set it IS the case seed, so a printed seed
        // replays its failing case directly.
        let case_seed = if pinned { seed } else { master.next_u64() };
        let mut rng = Rng::seed_from_u64(case_seed);
        let value = gen.generate(&mut rng);
        if let Err(err) = prop(&value) {
            let (shrunk, steps, final_err) =
                shrink_failure(gen, &prop, value.clone(), err.clone(), cfg.max_shrink_steps);
            panic!(
                "property '{name}' failed on case {case}/{cases}.\n\
                 reproduce with: HEDGEX_SEED={case_seed} cargo test\n\
                 original counterexample: {value:?}\n\
                 shrunk counterexample ({steps} shrink steps): {shrunk:?}\n\
                 error: {final_err}"
            );
        }
    }
}

/// Greedy first-failing-candidate descent through the shrink tree.
fn shrink_failure<T: Clone + 'static>(
    gen: &Gen<T>,
    prop: &impl Fn(&T) -> TestResult,
    mut value: T,
    mut err: String,
    max_steps: u32,
) -> (T, u32, String) {
    let mut steps = 0;
    'outer: while steps < max_steps {
        for candidate in gen.shrinks(&value) {
            if let Err(e) = prop(&candidate) {
                value = candidate;
                err = e;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, steps, err)
}

/// Shrink candidates for an unsigned integer: 0, halves, decrement.
pub fn shrink_u64(n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    out.push(0);
    if n > 2 {
        out.push(n / 2);
    }
    out.push(n - 1);
    out.dedup();
    out
}

/// Shrink candidates for a vector: drop halves, drop single elements, then
/// shrink elements in place.
pub fn shrink_vec<T: Clone>(xs: &[T], shrink_elem: impl Fn(&T) -> Vec<T>) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    if xs.is_empty() {
        return out;
    }
    out.push(Vec::new());
    if xs.len() > 1 {
        out.push(xs[..xs.len() / 2].to_vec());
        out.push(xs[xs.len() / 2..].to_vec());
        for i in 0..xs.len() {
            let mut dropped = xs.to_vec();
            dropped.remove(i);
            out.push(dropped);
        }
    }
    for (i, x) in xs.iter().enumerate() {
        for x2 in shrink_elem(x) {
            let mut replaced = xs.to_vec();
            replaced[i] = x2;
            out.push(replaced);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_u64() -> Gen<u64> {
        Gen::new(|rng| rng.random_range(0..1000u64)).with_shrink(|&n| shrink_u64(n))
    }

    #[test]
    fn passing_property_passes() {
        forall("u64 < 1000", Config::default(), &small_u64(), |&n| {
            prop_assert!(n < 1000);
            Ok(())
        });
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        let result = std::panic::catch_unwind(|| {
            forall(
                "n < 500 (false)",
                Config::with_cases(200),
                &small_u64(),
                |&n| {
                    prop_assert!(n < 500, "{n} >= 500");
                    Ok(())
                },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        // Greedy shrink must land on the boundary value 500.
        assert!(
            msg.contains("shrunk counterexample") && msg.contains(": 500"),
            "message was: {msg}"
        );
        assert!(msg.contains("HEDGEX_SEED="), "message was: {msg}");
    }

    #[test]
    fn printed_seed_reproduces_case() {
        // Whatever case seed produced a value, re-seeding reproduces it —
        // the guarantee behind the HEDGEX_SEED workflow.
        let gen = small_u64();
        let mut rng1 = Rng::seed_from_u64(987654321);
        let mut rng2 = Rng::seed_from_u64(987654321);
        assert_eq!(gen.generate(&mut rng1), gen.generate(&mut rng2));
    }

    #[test]
    fn zip2_shrinks_both_components() {
        let g = zip2(small_u64(), small_u64());
        let shrinks = g.shrinks(&(10, 20));
        assert!(shrinks.iter().any(|&(a, b)| a < 10 && b == 20));
        assert!(shrinks.iter().any(|&(a, b)| a == 10 && b < 20));
    }

    #[test]
    fn zip3_roundtrips_components() {
        let g = zip3(small_u64(), small_u64(), small_u64());
        let mut rng = Rng::seed_from_u64(5);
        let (a, b, c) = g.generate(&mut rng);
        assert!(a < 1000 && b < 1000 && c < 1000);
        assert!(!g.shrinks(&(3, 4, 5)).is_empty());
    }

    #[test]
    fn shrink_vec_proposes_empty_first() {
        let cands = shrink_vec(&[1u64, 2, 3], |&n| shrink_u64(n));
        assert_eq!(cands[0], Vec::<u64>::new());
        assert!(cands.iter().any(|c| c.len() == 2));
    }
}
