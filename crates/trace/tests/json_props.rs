//! Properties of the strict JSON reader (`mcd_trace::json`): generated
//! documents round-trip through `json_escape` and the writers' number
//! forms; every truncation and single-bit flip of a valid encoding is
//! `Ok` or a typed error, never a panic; duplicate keys and nesting past
//! `MAX_DEPTH` are refused.

use mcd_trace::json::{self, json_escape, Value, MAX_DEPTH};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Characters a generated string draws from: quotes, backslashes, every
/// control character, and non-ASCII up to the astral planes.
fn arb_char(rng: &mut TestRng) -> char {
    const SPECIAL: [char; 8] = ['"', '\\', '/', 'é', '√', '\u{ffff}', '😀', '\u{7f}'];
    match rng.next_u64() % 4 {
        0 => char::from_u32((rng.next_u64() % 0x20) as u32).expect("control"),
        1 => SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize],
        2 => char::from_u32((rng.next_u64() % 0x11_0000) as u32).unwrap_or('x'),
        _ => (b'a' + (rng.next_u64() % 26) as u8) as char,
    }
}

fn arb_string(rng: &mut TestRng) -> String {
    (0..rng.next_u64() % 8).map(|_| arb_char(rng)).collect()
}

/// A finite `f64` in the shortest form the writers print (`{}`).
fn arb_f64(rng: &mut TestRng) -> f64 {
    loop {
        let f = f64::from_bits(rng.next_u64());
        if f.is_finite() {
            return f;
        }
    }
}

/// A strategy from a plain generator function.
struct Gen<F>(F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for Gen<F> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// A JSON document up to `depth` levels of arrays and objects; object
/// keys are unique.
fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.next_u64() % kinds {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => Value::Num(rng.next_u64().to_string()),
        3 => Value::Num(format!("{}", arb_f64(rng))),
        4 => Value::Str(arb_string(rng)),
        5 => Value::Arr(
            (0..rng.next_u64() % 4)
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let mut members: Vec<(String, Value)> = Vec::new();
            for _ in 0..rng.next_u64() % 4 {
                let key = arb_string(rng);
                if members.iter().all(|(k, _)| *k != key) {
                    members.push((key, arb_value(rng, depth - 1)));
                }
            }
            Value::Obj(members)
        }
    }
}

/// A document whose top level is always an object.
fn arb_object() -> impl Strategy<Value = Value> {
    Gen(|rng: &mut TestRng| match arb_value(rng, 3) {
        obj @ Value::Obj(_) => obj,
        other => Value::Obj(vec![("v".to_string(), other)]),
    })
}

/// The writers' encoding: `json_escape` for strings, number text as is.
fn encode(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.clone(),
        Value::Str(s) => format!("\"{}\"", json_escape(s)),
        Value::Arr(items) => {
            let items: Vec<String> = items.iter().map(encode).collect();
            format!("[{}]", items.join(", "))
        }
        Value::Obj(members) => {
            let members: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", json_escape(k), encode(v)))
                .collect();
            format!("{{{}}}", members.join(", "))
        }
    }
}

/// Parses `bytes` if they are UTF-8; any error must be typed and point
/// inside (or just past) the input.
fn parse_bytes(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(text) = std::str::from_utf8(bytes) {
        if let Err(e) = json::parse(text) {
            prop_assert!(
                e.offset <= bytes.len(),
                "offset {} past input: {e}",
                e.offset
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_documents_round_trip(doc in arb_object()) {
        let text = encode(&doc);
        prop_assert_eq!(json::parse(&text), Ok(doc));
    }

    #[test]
    fn strings_round_trip_through_json_escape(s in Gen(arb_string)) {
        let text = format!("\"{}\"", json_escape(&s));
        prop_assert_eq!(json::parse(&text), Ok(Value::Str(s)));
    }

    #[test]
    fn numbers_read_back_exactly(n in 0u64..u64::MAX, bits in 0u64..u64::MAX) {
        let back = json::parse(&n.to_string()).expect("u64 text parses");
        prop_assert_eq!(back.as_u64(), Some(n));
        let f = f64::from_bits(bits);
        prop_assume!(f.is_finite());
        let back = json::parse(&format!("{f}")).expect("f64 text parses");
        prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(f.to_bits()));
    }

    #[test]
    fn every_truncation_is_a_typed_error(doc in arb_object()) {
        let text = encode(&doc);
        for cut in 0..text.len() {
            if let Ok(prefix) = std::str::from_utf8(&text.as_bytes()[..cut]) {
                let e = json::parse(prefix).expect_err("a cut object is incomplete");
                prop_assert!(e.offset <= cut, "offset {} past a {cut}-byte prefix", e.offset);
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_ok_or_a_typed_error(doc in arb_object()) {
        let mut bytes = encode(&doc).into_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                parse_bytes(&bytes)?;
                bytes[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn a_repeated_key_is_refused(doc in arb_object(), extra in Gen(|rng: &mut TestRng| arb_value(rng, 1)), at in 0usize..8) {
        let Value::Obj(mut members) = doc else { unreachable!("arb_object yields objects") };
        prop_assume!(!members.is_empty());
        let key = members[at % members.len()].0.clone();
        let pos = (at + 1) % (members.len() + 1);
        members.insert(pos, (key, extra));
        let e = json::parse(&encode(&Value::Obj(members))).expect_err("duplicate key");
        prop_assert!(e.message.contains("duplicate key"), "{e}");
    }

    #[test]
    fn nesting_past_the_limit_is_refused(extra in 1usize..4 * MAX_DEPTH, objects in any::<bool>()) {
        let depth = MAX_DEPTH + extra;
        let (open, close) = if objects { ("{\"k\":", "}") } else { ("[", "]") };
        let text = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        let e = json::parse(&text).expect_err("too deep");
        prop_assert!(e.message.contains("nesting"), "{e}");
        let at_limit = format!("{}0{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
        prop_assert!(json::parse(&at_limit).is_ok());
    }
}

#[test]
fn a_max_body_of_open_brackets_is_a_typed_error() {
    let e = json::parse(&"[".repeat(64 * 1024)).expect_err("too deep");
    assert_eq!(e.offset, MAX_DEPTH);
}
