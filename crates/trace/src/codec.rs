//! Primitive encoders/decoders: LEB128 varints, zigzag deltas, CRC32
//! framing, and the per-event wire form shared by files and stream frames.

use mcd_power::{OpIndex, TimePs};
use mcd_sim::{CtrlEvent, DomainId, ResetReason, SignalKind, StepDir, TraceEvent};

use crate::{err, TraceCodecError};

// ---------------------------------------------------------------- varint

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Maps signed deltas onto varint-friendly unsigned values (0, -1, 1, -2 →
/// 0, 1, 2, 3). Timestamps are monotone per run so deltas are almost
/// always positive, but replayed edge batches can interleave domains;
/// zigzag keeps the rare negative delta cheap instead of 10 bytes.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ----------------------------------------------------------------- crc32

/// The byte-at-a-time table for the reflected IEEE polynomial: entry `i`
/// is the CRC register after shifting byte `i` through it.
const fn byte_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Bytes [`crc32`] folds per step.
const SLICE: usize = 16;

/// Slicing-by-16 tables: `CRC_TABLES[k][i]` is the register after byte
/// `i` is followed by `k` zero bytes, so the contributions of 16 input
/// bytes are 16 independent lookups XORed together.
const fn slice_tables() -> [[u32; 256]; SLICE] {
    let mut t = [[0u32; 256]; SLICE];
    t[0] = byte_table();
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; SLICE] = slice_tables();

/// CRC-32 (IEEE 802.3 polynomial, reflected, init and xorout `!0`), the
/// integrity check on every block. Sixteen bytes per step through
/// `CRC_TABLES`, then the tail a byte at a time; the value is that of
/// the plain byte-at-a-time loop for every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(SLICE);
    for chunk in &mut chunks {
        let mut b: [u8; SLICE] = chunk.try_into().expect("exact chunk");
        for (x, r) in b.iter_mut().zip(c.to_le_bytes()) {
            *x ^= r;
        }
        c = b
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &x)| acc ^ t[SLICE - 1 - i][usize::from(x)]);
    }
    for &b in chunks.remainder() {
        c = t[0][usize::from(c as u8 ^ b)] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------- reader

/// A bounds-checked cursor over an immutable byte slice.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn at(bytes: &'a [u8], pos: usize) -> Result<Self, TraceCodecError> {
        if pos > bytes.len() {
            return Err(err(format!(
                "offset {pos} past end of {}-byte stream",
                bytes.len()
            )));
        }
        Ok(Reader { bytes, pos })
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TraceCodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                err(format!(
                    "truncated: wanted {n} bytes at offset {}",
                    self.pos
                ))
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, TraceCodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32le(&mut self) -> Result<u32, TraceCodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn f64bits(&mut self) -> Result<f64, TraceCodecError> {
        let b = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ])))
    }

    pub(crate) fn varint(&mut self) -> Result<u64, TraceCodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(err("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(err("varint longer than 10 bytes"));
            }
        }
    }
}

// ---------------------------------------------------------------- blocks

/// Appends one framed block: `[kind][varint len][payload][crc32le]`,
/// the CRC covering kind, length and payload.
pub(crate) fn write_block(buf: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = buf.len();
    buf.push(kind);
    put_varint(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    let crc = crc32(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Reads one framed block, verifying its CRC before the kind is trusted.
pub(crate) fn read_block<'a>(r: &mut Reader<'a>) -> Result<(u8, &'a [u8]), TraceCodecError> {
    let start = r.pos;
    let kind = r.u8()?;
    let len = r.varint()?;
    let len = usize::try_from(len).map_err(|_| err("block length overflows usize"))?;
    let payload = r.take(len)?;
    let got = crc32(&r.bytes[start..r.pos]);
    let want = r.u32le()?;
    if want != got {
        return Err(err(format!(
            "crc mismatch on block kind {kind:#04x}: stored {want:#010x}, computed {got:#010x}"
        )));
    }
    Ok((kind, payload))
}

// ------------------------------------------------------------ strings

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_str(r: &mut Reader<'_>) -> Result<String, TraceCodecError> {
    let len = r.varint()?;
    let len = usize::try_from(len).map_err(|_| err("string length overflows usize"))?;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| err("string is not UTF-8"))
}

pub(crate) fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            buf.push(1);
            put_str(buf, s);
        }
        None => buf.push(0),
    }
}

pub(crate) fn get_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, TraceCodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_str(r)?)),
        b => Err(err(format!("bad optional-string flag {b}"))),
    }
}

// ----------------------------------------------------------- enum bytes

const TAG_WINDOW_ENTER: u8 = 0;
const TAG_WINDOW_EXIT: u8 = 1;
const TAG_RELAY_ARM: u8 = 2;
const TAG_RELAY_FIRE: u8 = 3;
const TAG_RELAY_RESET: u8 = 4;
const TAG_FREQ_STEP: u8 = 5;
const TAG_QUEUE_HISTOGRAM: u8 = 6;

/// The variant lists both trace encodings share: in `.mcdt` a variant's
/// byte is its position in its list, in JSONL its text is its `label()`.
pub(crate) const SIGNALS: [SignalKind; 2] = [SignalKind::Occupancy, SignalKind::Delta];
pub(crate) const DIRS: [StepDir; 2] = [StepDir::Up, StepDir::Down];
pub(crate) const REASONS: [ResetReason; 4] = [
    ResetReason::BackInside,
    ResetReason::SideFlip,
    ResetReason::Cancelled,
    ResetReason::Acted,
];

/// A variant's wire byte: its position in `all`.
fn byte<T: PartialEq>(all: &[T], v: &T) -> u8 {
    all.iter()
        .position(|x| x == v)
        .expect("every variant is listed") as u8
}

/// The variant whose wire byte is `b`.
fn variant<T: Copy>(all: &[T], b: u8, what: &str) -> Result<T, TraceCodecError> {
    (all.get(usize::from(b)).copied()).ok_or_else(|| err(format!("bad {what} byte {b}")))
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

// ------------------------------------------------------------ the event

/// Appends one event in wire form: `[tag][domain][zigzag Δt][fields…]`.
/// `prev_t` carries the running timestamp; deltas are wrapping so any
/// `u64` pair round-trips.
pub(crate) fn encode_event(buf: &mut Vec<u8>, prev_t: &mut u64, ev: &TraceEvent) {
    let t = ev.at().as_ps();
    let dt = t.wrapping_sub(*prev_t) as i64;
    *prev_t = t;
    let (tag, ctrl) = match ev {
        TraceEvent::Controller { event, .. } => match event {
            CtrlEvent::WindowEnter { .. } => (TAG_WINDOW_ENTER, Some(event)),
            CtrlEvent::WindowExit { .. } => (TAG_WINDOW_EXIT, Some(event)),
            CtrlEvent::RelayArm { .. } => (TAG_RELAY_ARM, Some(event)),
            CtrlEvent::RelayFire { .. } => (TAG_RELAY_FIRE, Some(event)),
            CtrlEvent::RelayReset { .. } => (TAG_RELAY_RESET, Some(event)),
        },
        TraceEvent::FreqStep { .. } => (TAG_FREQ_STEP, None),
        TraceEvent::QueueHistogram { .. } => (TAG_QUEUE_HISTOGRAM, None),
    };
    buf.push(tag);
    buf.push(ev.domain().index() as u8);
    put_varint(buf, zigzag(dt));
    match (ctrl, ev) {
        (
            Some(CtrlEvent::WindowEnter {
                signal,
                value,
                occupancy,
                dir,
                ..
            }),
            _,
        ) => {
            buf.push(byte(&SIGNALS, signal));
            buf.push(byte(&DIRS, dir));
            put_varint(buf, u64::from(*occupancy));
            put_f64(buf, *value);
        }
        (
            Some(CtrlEvent::WindowExit {
                signal,
                value,
                occupancy,
                ..
            }),
            _,
        ) => {
            buf.push(byte(&SIGNALS, signal));
            put_varint(buf, u64::from(*occupancy));
            put_f64(buf, *value);
        }
        (
            Some(CtrlEvent::RelayArm {
                signal,
                dir,
                remaining,
                ..
            }),
            _,
        ) => {
            buf.push(byte(&SIGNALS, signal));
            buf.push(byte(&DIRS, dir));
            put_f64(buf, *remaining);
        }
        (Some(CtrlEvent::RelayFire { signal, dir, .. }), _) => {
            buf.push(byte(&SIGNALS, signal));
            buf.push(byte(&DIRS, dir));
        }
        (Some(CtrlEvent::RelayReset { signal, why, .. }), _) => {
            buf.push(byte(&SIGNALS, signal));
            buf.push(byte(&REASONS, why));
        }
        (
            None,
            TraceEvent::FreqStep {
                from,
                to,
                from_mhz,
                to_mhz,
                from_mv,
                to_mv,
                ..
            },
        ) => {
            put_varint(buf, u64::from(from.0));
            put_varint(buf, u64::from(to.0));
            put_f64(buf, *from_mhz);
            put_f64(buf, *to_mhz);
            put_f64(buf, *from_mv);
            put_f64(buf, *to_mv);
        }
        (
            None,
            TraceEvent::QueueHistogram {
                samples, counts, ..
            },
        ) => {
            put_varint(buf, *samples);
            put_varint(buf, counts.len() as u64);
            for &c in counts {
                put_varint(buf, c);
            }
        }
        _ => unreachable!("tag/event pairing is exhaustive"),
    }
}

/// Inverse of [`encode_event`].
pub(crate) fn decode_event(
    r: &mut Reader<'_>,
    prev_t: &mut u64,
) -> Result<TraceEvent, TraceCodecError> {
    let tag = r.u8()?;
    let domain = variant(&DomainId::ALL, r.u8()?, "domain")?;
    let dt = unzigzag(r.varint()?);
    let t = prev_t.wrapping_add(dt as u64);
    *prev_t = t;
    let at = TimePs::new(t);
    let ctrl = |event: CtrlEvent| TraceEvent::Controller { domain, event };
    Ok(match tag {
        TAG_WINDOW_ENTER => {
            let signal = variant(&SIGNALS, r.u8()?, "signal")?;
            let dir = variant(&DIRS, r.u8()?, "direction")?;
            let occupancy = u32::try_from(r.varint()?).map_err(|_| err("occupancy > u32"))?;
            let value = r.f64bits()?;
            ctrl(CtrlEvent::WindowEnter {
                at,
                signal,
                value,
                occupancy,
                dir,
            })
        }
        TAG_WINDOW_EXIT => {
            let signal = variant(&SIGNALS, r.u8()?, "signal")?;
            let occupancy = u32::try_from(r.varint()?).map_err(|_| err("occupancy > u32"))?;
            let value = r.f64bits()?;
            ctrl(CtrlEvent::WindowExit {
                at,
                signal,
                value,
                occupancy,
            })
        }
        TAG_RELAY_ARM => {
            let signal = variant(&SIGNALS, r.u8()?, "signal")?;
            let dir = variant(&DIRS, r.u8()?, "direction")?;
            let remaining = r.f64bits()?;
            ctrl(CtrlEvent::RelayArm {
                at,
                signal,
                dir,
                remaining,
            })
        }
        TAG_RELAY_FIRE => {
            let signal = variant(&SIGNALS, r.u8()?, "signal")?;
            let dir = variant(&DIRS, r.u8()?, "direction")?;
            ctrl(CtrlEvent::RelayFire { at, signal, dir })
        }
        TAG_RELAY_RESET => {
            let signal = variant(&SIGNALS, r.u8()?, "signal")?;
            let why = variant(&REASONS, r.u8()?, "reset-reason")?;
            ctrl(CtrlEvent::RelayReset { at, signal, why })
        }
        TAG_FREQ_STEP => {
            let from = OpIndex(u16::try_from(r.varint()?).map_err(|_| err("op index > u16"))?);
            let to = OpIndex(u16::try_from(r.varint()?).map_err(|_| err("op index > u16"))?);
            let from_mhz = r.f64bits()?;
            let to_mhz = r.f64bits()?;
            let from_mv = r.f64bits()?;
            let to_mv = r.f64bits()?;
            TraceEvent::FreqStep {
                at,
                domain,
                from,
                to,
                from_mhz,
                to_mhz,
                from_mv,
                to_mv,
            }
        }
        TAG_QUEUE_HISTOGRAM => {
            let samples = r.varint()?;
            let n = r.varint()?;
            // Every count takes at least one byte, so a claim past the
            // bytes left is corrupt, and the reservation stays bounded by
            // the input.
            if n > r.remaining() as u64 {
                return Err(err(format!(
                    "histogram claims {n} counts with {} payload bytes left",
                    r.remaining()
                )));
            }
            let mut counts = Vec::with_capacity(n as usize);
            for _ in 0..n {
                counts.push(r.varint()?);
            }
            TraceEvent::QueueHistogram {
                at,
                domain,
                samples,
                counts,
            }
        }
        other => return Err(err(format!("unknown event tag {other}"))),
    })
}

/// Whether two event streams are bit-identical in wire form: every
/// field, every `f64` by its bits. Unlike `==` on events, `-0.0` differs
/// from `0.0` and a NaN equals itself.
pub fn wire_identical(a: &[TraceEvent], b: &[TraceEvent]) -> bool {
    let (mut wa, mut wb) = (Vec::new(), Vec::new());
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            wa.clear();
            wb.clear();
            encode_event(&mut wa, &mut 0, x);
            encode_event(&mut wb, &mut 0, y);
            wa == wb
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 145_000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical check: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The reference: the byte-at-a-time loop over its own table, built
    /// apart from [`CRC_TABLES`].
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = byte_table();
        let mut c = !0u32;
        for &b in bytes {
            c = TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn sliced_crc32_equals_the_byte_loop() {
        // A deterministic, non-repeating buffer (xorshift bytes).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf), "1 MiB");
    }

    #[test]
    fn block_crc_detects_corruption() {
        let mut buf = Vec::new();
        write_block(&mut buf, block_kind(), b"payload");
        let n = buf.len();
        buf[n - 6] ^= 0x01; // flip a payload byte
        let mut r = Reader::new(&buf);
        assert!(read_block(&mut r).is_err());
    }

    fn block_kind() -> u8 {
        crate::block::EVENTS
    }

    #[test]
    fn block_crc_covers_the_kind_and_length() {
        let mut buf = Vec::new();
        write_block(&mut buf, block_kind(), b"payload");
        let mut kind = buf.clone();
        kind[0] ^= 0x01;
        // A length one short still frames; only the CRC can notice.
        let mut len = buf.clone();
        len[1] -= 1;
        for bad in [kind, len] {
            let e = read_block(&mut Reader::new(&bad)).expect_err("altered header");
            assert!(e.0.contains("crc mismatch"), "{e}");
        }
    }

    #[test]
    fn histogram_count_claims_are_bounded_by_the_payload() {
        let mut buf = vec![TAG_QUEUE_HISTOGRAM, 0, 0, 7];
        put_varint(&mut buf, 1 << 40);
        buf.extend_from_slice(&[1, 2, 3]);
        let e = decode_event(&mut Reader::new(&buf), &mut 0).expect_err("short payload");
        assert!(e.0.contains("claims 1099511627776 counts"), "{e}");
    }

    #[test]
    fn wire_identity_compares_f64_bits() {
        let ev = |mhz: f64| TraceEvent::FreqStep {
            at: TimePs::new(7),
            domain: DomainId::Int,
            from: OpIndex(3),
            to: OpIndex(1),
            from_mhz: mhz,
            to_mhz: 700.0,
            from_mv: 1_000.0,
            to_mv: 900.0,
        };
        assert!(wire_identical(&[ev(900.0)], &[ev(900.0)]));
        assert!(wire_identical(&[ev(f64::NAN)], &[ev(f64::NAN)]));
        assert!(!wire_identical(&[ev(0.0)], &[ev(-0.0)]));
        assert!(!wire_identical(&[ev(900.0)], &[ev(900.0_f64.next_up())]));
        assert!(!wire_identical(&[ev(900.0)], &[]));
    }

    #[test]
    fn wrapping_delta_handles_out_of_order_timestamps() {
        let ev1 = TraceEvent::FreqStep {
            at: TimePs::new(1_000),
            domain: DomainId::Int,
            from: OpIndex(3),
            to: OpIndex(1),
            from_mhz: 900.0,
            to_mhz: 700.0,
            from_mv: 1_000.0,
            to_mv: 900.0,
        };
        let ev2 = TraceEvent::QueueHistogram {
            at: TimePs::new(5), // earlier than ev1: negative delta
            domain: DomainId::Fp,
            samples: 7,
            counts: vec![1, 0, 3],
        };
        let mut buf = Vec::new();
        let mut t = 0u64;
        encode_event(&mut buf, &mut t, &ev1);
        encode_event(&mut buf, &mut t, &ev2);
        let mut r = Reader::new(&buf);
        let mut t = 0u64;
        assert_eq!(decode_event(&mut r, &mut t).unwrap(), ev1);
        assert_eq!(decode_event(&mut r, &mut t).unwrap(), ev2);
        assert!(r.is_empty());
    }
}
