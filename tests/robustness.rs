//! Robustness suite: every decoder on the request path answers arbitrary
//! edits of a valid payload with `Ok` or a typed `Err`, never a panic.
//!
//! Each case takes a valid input — qfwasm text, bound qfwasm-param text,
//! a checked-in OpenQASM 3 corpus file, or a `JobEnvelope` as JSON — and
//! applies 1–4 seeded random edits (insert, delete, replace, duplicate),
//! text payloads drawing from the characters their grammars care about.
//! The oracle is `catch_unwind`: a decoder that panics fails the case and
//! the failure message carries the exact input to replay.

use proptest::prelude::*;
use qfw::{BackendSpec, ResultCache};
use qfw_circuit::{text, Circuit, Gate};
use qfw_compile::OptLevel;
use qfw_num::rng::Rng;
use qfw_obs::Obs;
use qfw_sched::JobEnvelope;
use qfw_workloads::{qaoa_ansatz, Qubo};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Cases per decoder.
const CASES: u32 = 256;

const QASM3_CORPUS: [&str; 5] = [
    include_str!("../crates/compile/tests/corpus/ghz8.qasm"),
    include_str!("../crates/compile/tests/corpus/mixed.qasm"),
    include_str!("../crates/compile/tests/corpus/mixed.golden.qasm"),
    include_str!("../crates/compile/tests/corpus/qaoa14.qasm"),
    include_str!("../crates/compile/tests/corpus/tfim16.qasm"),
];

/// Characters an edit draws from: the grammars' structure first, then a
/// few arbitrary ones (multi-byte included).
const ALPHABET: &[char] = &[
    '0', '1', '2', '3', '7', '9', 'q', 'c', 'e', ' ', '\n', '(', ')', ',', '@', '*', '+', '-', '>',
    '.', ':', '[', ']', '{', '}', '"', ';', '/', '=', 'x', 'π', '\u{0}', 'ß',
];

/// A valid qfwasm payload touching every line form the parser accepts.
fn qfwasm() -> String {
    let mut qc = Circuit::with_clbits(3, 3).named("edits");
    qc.h(0)
        .cx(0, 1)
        .rz(2, 0.25)
        .push(Gate::U(1, 0.1, 0.2, 0.3))
        .ccx(0, 1, 2)
        .push(Gate::Unitary {
            qubits: vec![2],
            matrix: Arc::new(Gate::X(0).matrix()),
            label: "xblk".into(),
        })
        .barrier()
        .measure_all();
    text::dump(&qc)
}

/// A valid bound qfwasm-param payload (QAOA over a 3-variable QUBO).
fn qfwasm_param() -> String {
    let template = qaoa_ansatz(&Qubo::random(3, 0.8, 5), 1);
    text::dump_param_bound(&template, &[0.4, -0.7])
}

fn envelope_json() -> Vec<u8> {
    let mut qc = Circuit::new(2);
    qc.h(0).cx(0, 1).measure_all();
    let env = JobEnvelope::new("fuzz", &qc, 64)
        .with_seed(9)
        .with_spec(BackendSpec::of("nwqsim", "cpu").with_extra("fusion", "none"));
    serde_json::to_vec(&env).expect("encode envelope")
}

/// Applies 1–4 random edits — insert, delete, replace or duplicate one
/// element — drawing new elements from `pick`.
fn edit<T: Copy>(mut xs: Vec<T>, rng: &mut Rng, pick: impl Fn(&mut Rng) -> T) -> Vec<T> {
    for _ in 0..1 + rng.index(4) {
        let at = rng.index(xs.len() + 1);
        let new = pick(rng);
        match rng.index(4) {
            _ if at == xs.len() => xs.push(new),
            0 => xs.insert(at, new),
            1 => {
                xs.remove(at);
            }
            2 => xs[at] = new,
            _ => xs.insert(at, xs[at]),
        }
    }
    xs
}

/// [`edit`] over the characters of a text payload.
fn edit_text(src: &str, rng: &mut Rng) -> String {
    let chars = edit(src.chars().collect(), rng, |r| {
        ALPHABET[r.index(ALPHABET.len())]
    });
    chars.into_iter().collect()
}

/// The oracle: `decode` may return anything but must not panic.
fn never_panics<T>(what: &str, input: &dyn std::fmt::Debug, decode: impl FnOnce() -> T) {
    if catch_unwind(AssertUnwindSafe(decode)).is_err() {
        panic!("{what} panicked on {input:?}");
    }
}

/// `ResultCache::key` hashes whatever circuit text arrives.
fn cache_key(circuit: &str) {
    ResultCache::key(circuit, 1, 100, &BackendSpec::of("nwqsim", "cpu"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn qfwasm_edits_never_panic(seed in 0u64..1_000_000) {
        let src = edit_text(&qfwasm(), &mut Rng::seed_from(seed));
        never_panics("text::parse", &src, || text::parse(&src));
        never_panics("ResultCache::key", &src, || cache_key(&src));
    }

    #[test]
    fn qfwasm_param_edits_never_panic(seed in 0u64..1_000_000) {
        let src = edit_text(&qfwasm_param(), &mut Rng::seed_from(seed));
        // A template the parser accepts must also bind without panicking.
        never_panics("text::parse_param + bind", &src, || {
            if let Ok((template, Some(params))) = text::parse_param(&src) {
                template.bind(&params);
            }
        });
        never_panics("ResultCache::key", &src, || cache_key(&src));
    }

    #[test]
    fn qasm3_edits_never_panic(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from(seed);
        let src = edit_text(QASM3_CORPUS[rng.index(QASM3_CORPUS.len())], &mut rng);
        never_panics("qasm3 ingestion", &src, || {
            qfw_compile::ingest_qasm3(&src, OptLevel::O2, &Obs::disabled())
        });
        never_panics("ResultCache::key", &src, || cache_key(&src));
    }

    #[test]
    fn envelope_json_edits_never_panic(seed in 0u64..1_000_000) {
        // Byte edits: the decoder takes bytes, so they may also break UTF-8.
        let bytes = edit(envelope_json(), &mut Rng::seed_from(seed), |r| r.below(256) as u8);
        let shown = String::from_utf8_lossy(&bytes);
        never_panics("JobEnvelope decode + key", &shown, || {
            if let Ok(env) = serde_json::from_slice::<JobEnvelope>(&bytes) {
                ResultCache::key(&env.circuit, env.seed, env.shots, &env.spec);
            }
        });
    }
}

/// The unedited inputs decode: the edits above start from valid payloads.
#[test]
fn seeds_are_valid_payloads() {
    text::parse(&qfwasm()).expect("qfwasm seed parses");
    let (_, bound) = text::parse_param(&qfwasm_param()).expect("param seed parses");
    assert!(bound.is_some());
    qfw_compile::ingest_qasm3(QASM3_CORPUS[0], OptLevel::O2, &Obs::disabled())
        .expect("corpus seed ingests");
    serde_json::from_slice::<JobEnvelope>(&envelope_json()).expect("envelope seed decodes");
}
