//! Helpers shared by the `.mcdt` integration tests.

/// Every framed block `[kind][varint len][payload][crc]` tiling
/// `bytes[from..end]`: where it starts, where its payload starts, and
/// where its CRC starts.
pub fn blocks(bytes: &[u8], from: usize, end: usize) -> Vec<(usize, usize, usize)> {
    let mut pos = from;
    let mut out = Vec::new();
    while pos < end {
        let (mut len, mut shift, mut i) = (0usize, 0, pos + 1);
        loop {
            let b = bytes[i];
            len |= usize::from(b & 0x7f) << shift;
            i += 1;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        out.push((pos, i, i + len));
        pos = i + len + 4;
    }
    assert_eq!(pos, end, "blocks tile the input");
    out
}
