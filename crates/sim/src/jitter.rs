//! Shared, memoized clock-jitter sample streams.
//!
//! Every [`DomainClock`](crate::clock::DomainClock) perturbs its edges with
//! Box–Muller normal samples drawn from a seeded RNG. The standard normal
//! variate `z` depends only on the RNG seed — the clock's σ enters
//! afterwards, as `(z * σ).clamp(±3σ)` — and a sweep re-runs the same four
//! clock seeds hundreds of times, so the `z` sequences are identical across
//! every run in the process. This module computes each seed's sequence once
//! and shares it: a clock edge costs an array read instead of two RNG draws,
//! a `ln`, a `sqrt`, and a `cos`.
//!
//! Bit-identicality: the cached values are produced by *exactly* the
//! per-call computation the clock used to perform (same RNG, same draw
//! order, same expression), so consuming the stream yields the same f64s in
//! the same order as sampling inline. Clocks with σ = 0 never consume the
//! RNG at all — callers must keep that check in front of the cursor, which
//! is why [`JitterCursor::new`] is only invoked for jittered clocks.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Standard-normal values per lazily-generated chunk.
const CHUNK: usize = 4096;

/// One seed's memoized standard-normal sequence, extended on demand.
struct Stream {
    inner: Mutex<StreamInner>,
}

struct StreamInner {
    /// RNG positioned immediately after the last generated chunk.
    rng: StdRng,
    chunks: Vec<Arc<[f64]>>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            inner: Mutex::new(StreamInner {
                rng: StdRng::seed_from_u64(seed),
                chunks: Vec::new(),
            }),
        }
    }

    /// The `idx`-th chunk, generating forward as needed.
    fn chunk(&self, idx: usize) -> Arc<[f64]> {
        let mut g = self.inner.lock().expect("jitter stream poisoned");
        while g.chunks.len() <= idx {
            let mut buf = Vec::with_capacity(CHUNK);
            for _ in 0..CHUNK {
                // The exact Box–Muller expression the clock used to inline.
                let u1: f64 = g.rng.gen::<f64>().max(1e-12);
                let u2: f64 = g.rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                buf.push(z);
            }
            g.chunks.push(buf.into());
        }
        g.chunks[idx].clone()
    }
}

/// Process-wide stream registry, keyed by RNG seed.
fn stream_for(seed: u64) -> Arc<Stream> {
    static STREAMS: OnceLock<Mutex<HashMap<u64, Arc<Stream>>>> = OnceLock::new();
    let map = STREAMS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut g = map.lock().expect("jitter registry poisoned");
    g.entry(seed)
        .or_insert_with(|| Arc::new(Stream::new(seed)))
        .clone()
}

/// A clock's private read position in a shared seed stream.
///
/// `Clone` replays from the same position, matching the semantics of
/// cloning the RNG it replaces.
#[derive(Clone)]
pub(crate) struct JitterCursor {
    stream: Arc<Stream>,
    chunk: Arc<[f64]>,
    chunk_idx: usize,
    pos: usize,
}

impl std::fmt::Debug for JitterCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitterCursor")
            .field("chunk_idx", &self.chunk_idx)
            .field("pos", &self.pos)
            .finish()
    }
}

impl JitterCursor {
    /// A cursor at the start of `seed`'s stream.
    pub(crate) fn new(seed: u64) -> Self {
        let stream = stream_for(seed);
        let chunk = stream.chunk(0);
        JitterCursor {
            stream,
            chunk,
            chunk_idx: 0,
            pos: 0,
        }
    }

    /// The cursor's read position as `(chunk_idx, pos)` for snapshots.
    pub(crate) fn position(&self) -> (u64, u64) {
        (self.chunk_idx as u64, self.pos as u64)
    }

    /// How many values a cursor at `(chunk_idx, pos)` has drawn (`None`
    /// past `u64`).
    pub(crate) fn draws_at(chunk_idx: u64, pos: u64) -> Option<u64> {
        chunk_idx.checked_mul(CHUNK as u64)?.checked_add(pos)
    }

    /// Repositions the cursor (chunks regenerate forward on demand, so any
    /// position is reachable from a fresh cursor). `pos == CHUNK` is legal:
    /// it is the transient state right before a refill.
    pub(crate) fn seek(&mut self, chunk_idx: u64, pos: u64) -> mcd_snap::SnapResult<()> {
        let (chunk_idx, pos) = (chunk_idx as usize, pos as usize);
        if pos > CHUNK {
            return Err(mcd_snap::SnapError::Mismatch(format!(
                "jitter cursor pos {pos} exceeds chunk size {CHUNK}"
            )));
        }
        self.chunk = self.stream.chunk(chunk_idx);
        self.chunk_idx = chunk_idx;
        self.pos = pos;
        Ok(())
    }

    /// The next standard-normal value in the stream.
    #[inline]
    pub(crate) fn next_z(&mut self) -> f64 {
        if self.pos == CHUNK {
            self.chunk_idx += 1;
            self.chunk = self.stream.chunk(self.chunk_idx);
            self.pos = 0;
        }
        let z = self.chunk[self.pos];
        self.pos += 1;
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference inline computation the stream replaces.
    fn inline_z(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn stream_matches_inline_box_muller_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut cursor = JitterCursor::new(0x5eed);
        // Cross two chunk boundaries to cover the refill path.
        for i in 0..(2 * CHUNK + 17) {
            let expect = inline_z(&mut rng);
            let got = cursor.next_z();
            assert_eq!(expect.to_bits(), got.to_bits(), "draw {i}");
        }
    }

    #[test]
    fn independent_cursors_share_one_stream() {
        let mut a = JitterCursor::new(0x1234_5678);
        let mut b = JitterCursor::new(0x1234_5678);
        for _ in 0..100 {
            assert_eq!(a.next_z().to_bits(), b.next_z().to_bits());
        }
        assert!(Arc::ptr_eq(&a.stream, &b.stream));
    }

    #[test]
    fn seek_restores_an_arbitrary_position() {
        let mut a = JitterCursor::new(0xabcd);
        for _ in 0..(CHUNK + 37) {
            a.next_z();
        }
        let (ci, p) = a.position();
        let mut b = JitterCursor::new(0xabcd);
        b.seek(ci, p).unwrap();
        for i in 0..200 {
            assert_eq!(a.next_z().to_bits(), b.next_z().to_bits(), "draw {i}");
        }
        assert!(b.seek(0, CHUNK as u64 + 1).is_err());
    }

    #[test]
    fn distinct_seeds_get_distinct_sequences() {
        let mut a = JitterCursor::new(1);
        let mut b = JitterCursor::new(2);
        let same = (0..32).filter(|_| a.next_z() == b.next_z()).count();
        assert!(same < 32, "different seeds should diverge");
    }
}
