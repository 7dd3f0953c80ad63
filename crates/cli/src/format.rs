//! The on-disk container format for coded shards and the manifest.
//!
//! Everything is explicit little-endian binary with magic numbers,
//! version bytes and FNV-1a integrity checksums — no external
//! serialisation dependency. Two file kinds:
//!
//! * **manifest** (`manifest.prlcm`): file metadata needed to
//!   reassemble — original length, block size, level sizes, scheme.
//! * **shard** (`shard-*.prlc`): one coded block — level, dense
//!   coefficient vector over GF(2⁸) and payload.

use std::fmt;
use std::io::{self, Read, Write};

use prlc_core::{CodedBlock, CoeffRow, PriorityProfile, Scheme};
use prlc_gf::Gf256;
use prlc_obs::baseline::fnv1a64;

const SHARD_MAGIC: &[u8; 4] = b"PRLC";
const MANIFEST_MAGIC: &[u8; 4] = b"PRLM";
const VERSION: u8 = 1;

/// Errors reading or writing container files.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Wrong magic bytes (not a PRLC file).
    BadMagic,
    /// Unsupported container version.
    BadVersion(u8),
    /// Checksum mismatch: the file is corrupt.
    Corrupt,
    /// Structurally invalid contents (message attached).
    Invalid(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::BadMagic => write!(f, "not a PRLC container file"),
            FormatError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            FormatError::Corrupt => write!(f, "checksum mismatch (corrupt file)"),
            FormatError::Invalid(m) => write!(f, "invalid container contents: {m}"),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.pos + n > self.data.len() {
            return Err(FormatError::Invalid("truncated file".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

fn scheme_tag(s: Scheme) -> u8 {
    match s {
        Scheme::Rlc => 0,
        Scheme::Slc => 1,
        Scheme::Plc => 2,
    }
}

fn scheme_from_tag(t: u8) -> Result<Scheme, FormatError> {
    match t {
        0 => Ok(Scheme::Rlc),
        1 => Ok(Scheme::Slc),
        2 => Ok(Scheme::Plc),
        _ => Err(FormatError::Invalid(format!("unknown scheme tag {t}"))),
    }
}

/// The manifest: everything needed to reassemble the original file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Original file length in bytes.
    pub file_len: u64,
    /// Source-block payload size in bytes.
    pub block_size: u32,
    /// The coding scheme of the shards.
    pub scheme: Scheme,
    /// Per-level source-block counts (most important first).
    pub level_sizes: Vec<u32>,
    /// FNV-1a checksum of the original file (verified after full
    /// recovery).
    pub file_hash: u64,
}

impl Manifest {
    /// The priority profile implied by the manifest.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Invalid`] if the level sizes are not a
    /// valid profile.
    pub fn profile(&self) -> Result<PriorityProfile, FormatError> {
        PriorityProfile::new(self.level_sizes.iter().map(|&s| s as usize).collect())
            .map_err(|e| FormatError::Invalid(e.to_string()))
    }

    /// Total number of source blocks.
    pub fn total_blocks(&self) -> usize {
        self.level_sizes.iter().map(|&s| s as usize).sum()
    }

    /// Serialises the manifest.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), FormatError> {
        let mut body = Vec::new();
        put_u64(&mut body, self.file_len);
        put_u32(&mut body, self.block_size);
        body.push(scheme_tag(self.scheme));
        put_u32(&mut body, self.level_sizes.len() as u32);
        for &s in &self.level_sizes {
            put_u32(&mut body, s);
        }
        put_u64(&mut body, self.file_hash);

        w.write_all(MANIFEST_MAGIC)?;
        w.write_all(&[VERSION])?;
        w.write_all(&(body.len() as u32).to_le_bytes())?;
        w.write_all(&fnv1a64(&body).to_le_bytes())?;
        w.write_all(&body)?;
        Ok(())
    }

    /// Deserialises a manifest.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, FormatError> {
        let mut raw = Vec::new();
        r.read_to_end(&mut raw)?;
        let mut c = Cursor::new(&raw);
        if c.take(4)? != MANIFEST_MAGIC {
            return Err(FormatError::BadMagic);
        }
        let version = c.u8()?;
        if version != VERSION {
            return Err(FormatError::BadVersion(version));
        }
        let body_len = c.u32()? as usize;
        let checksum = c.u64()?;
        let body = c.take(body_len)?;
        if fnv1a64(body) != checksum {
            return Err(FormatError::Corrupt);
        }
        let mut b = Cursor::new(body);
        let file_len = b.u64()?;
        let block_size = b.u32()?;
        let scheme = scheme_from_tag(b.u8()?)?;
        let n_levels = b.u32()? as usize;
        if n_levels > 1_000_000 {
            return Err(FormatError::Invalid("absurd level count".into()));
        }
        let mut level_sizes = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            level_sizes.push(b.u32()?);
        }
        let file_hash = b.u64()?;
        if !b.done() {
            return Err(FormatError::Invalid("trailing manifest bytes".into()));
        }
        // The invariant `encode` writes: the level sizes split exactly
        // the blocks the file fills. A hostile count would otherwise size
        // the decoder.
        if file_len == 0 || block_size == 0 {
            return Err(FormatError::Invalid("empty file or zero block size".into()));
        }
        let blocks = file_len.div_ceil(u64::from(block_size));
        let listed: u64 = level_sizes.iter().map(|&s| u64::from(s)).sum();
        if listed != blocks {
            return Err(FormatError::Invalid(format!(
                "level sizes list {listed} blocks, but {file_len} bytes in \
                 {block_size}-byte blocks fill {blocks}"
            )));
        }
        Ok(Manifest {
            file_len,
            block_size,
            scheme,
            level_sizes,
            file_hash,
        })
    }
}

/// Serialises one coded block as a shard.
pub fn write_shard<W: Write>(mut w: W, block: &CodedBlock<Gf256>) -> Result<(), FormatError> {
    let mut body = Vec::new();
    put_u32(&mut body, block.level as u32);
    put_u32(&mut body, block.coefficients.len() as u32);
    put_u32(&mut body, block.payload.len() as u32);
    // The on-disk shard format is dense regardless of the in-memory
    // representation, so shard bytes are representation-independent.
    body.extend(block.coefficients.to_dense_vec().iter().map(|c| c.raw()));
    body.extend(block.payload.iter().map(|c| c.raw()));

    w.write_all(SHARD_MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&fnv1a64(&body).to_le_bytes())?;
    w.write_all(&body)?;
    Ok(())
}

/// Deserialises one shard.
pub fn read_shard<R: Read>(mut r: R) -> Result<CodedBlock<Gf256>, FormatError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let mut c = Cursor::new(&raw);
    if c.take(4)? != SHARD_MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(FormatError::BadVersion(version));
    }
    let body_len = c.u32()? as usize;
    let checksum = c.u64()?;
    let body = c.take(body_len)?;
    if fnv1a64(body) != checksum {
        return Err(FormatError::Corrupt);
    }
    let mut b = Cursor::new(body);
    let level = b.u32()? as usize;
    let n_coeffs = b.u32()? as usize;
    let n_payload = b.u32()? as usize;
    let coefficients =
        CoeffRow::from_dense(b.take(n_coeffs)?.iter().map(|&v| Gf256::new(v)).collect());
    let payload = b.take(n_payload)?.iter().map(|&v| Gf256::new(v)).collect();
    if !b.done() {
        return Err(FormatError::Invalid("trailing shard bytes".into()));
    }
    Ok(CodedBlock {
        level,
        coefficients,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        Manifest {
            file_len: 123_456,
            block_size: 1024,
            scheme: Scheme::Plc,
            level_sizes: vec![10, 30, 81],
            file_hash: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample_manifest();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let back = Manifest::read_from(&buf[..]).unwrap();
        assert_eq!(m, back);
        assert_eq!(back.total_blocks(), 121);
        assert_eq!(back.profile().unwrap().num_levels(), 3);
    }

    #[test]
    fn shard_roundtrip() {
        let block = CodedBlock {
            level: 2,
            coefficients: CoeffRow::from_dense(
                (0..50).map(|i| Gf256::new((i * 5) as u8)).collect(),
            ),
            payload: (0..1024).map(|i| Gf256::new((i % 251) as u8)).collect(),
        };
        let mut buf = Vec::new();
        write_shard(&mut buf, &block).unwrap();
        let back = read_shard(&buf[..]).unwrap();
        assert_eq!(block, back);
    }

    #[test]
    fn corrupt_files_are_rejected() {
        let m = sample_manifest();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        // Flip a body byte.
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert!(matches!(
            Manifest::read_from(&buf[..]),
            Err(FormatError::Corrupt)
        ));

        let block = CodedBlock {
            level: 0,
            coefficients: CoeffRow::from_dense(vec![Gf256::new(1); 4]),
            payload: vec![Gf256::new(2); 4],
        };
        let mut sbuf = Vec::new();
        write_shard(&mut sbuf, &block).unwrap();
        sbuf[20] ^= 0x01;
        assert!(matches!(read_shard(&sbuf[..]), Err(FormatError::Corrupt)));
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        assert!(matches!(
            Manifest::read_from(&b"NOPE....."[..]),
            Err(FormatError::BadMagic)
        ));
        let m = sample_manifest();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        buf[4] = 99; // version byte
        assert!(matches!(
            Manifest::read_from(&buf[..]),
            Err(FormatError::BadVersion(99))
        ));
        // Shard reader refuses a manifest.
        let mut mbuf = Vec::new();
        sample_manifest().write_to(&mut mbuf).unwrap();
        assert!(matches!(read_shard(&mbuf[..]), Err(FormatError::BadMagic)));
    }

    #[test]
    fn truncated_files_are_invalid() {
        let m = sample_manifest();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            Manifest::read_from(&buf[..]),
            Err(FormatError::Invalid(_))
        ));
    }

    #[test]
    fn fnv_known_values() {
        // FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_F739_67E8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn manifest_roundtrips_arbitrary(
            tail in 1u64..1 << 20,
            block_size in 1u32..1 << 20,
            scheme_tag in 0u8..3,
            level_sizes in prop::collection::vec(1u32..10_000, 1..20),
            file_hash in any::<u64>(),
        ) {
            // A file that fills exactly the listed blocks: every block
            // but the last is full, the last holds 1..=block_size bytes.
            let blocks: u64 = level_sizes.iter().map(|&s| u64::from(s)).sum();
            let file_len = (blocks - 1) * u64::from(block_size) + 1 + tail % u64::from(block_size);
            let m = Manifest {
                file_len,
                block_size,
                scheme: scheme_from_tag(scheme_tag).unwrap(),
                level_sizes,
                file_hash,
            };
            let mut buf = Vec::new();
            m.write_to(&mut buf).unwrap();
            prop_assert_eq!(Manifest::read_from(&buf[..]).unwrap(), m);
        }

        #[test]
        fn shard_roundtrips_arbitrary(
            level in 0usize..100,
            coeffs in prop::collection::vec(any::<u8>(), 0..300),
            payload in prop::collection::vec(any::<u8>(), 0..300),
        ) {
            let block = CodedBlock {
                level,
                coefficients: CoeffRow::from_dense(coeffs.iter().map(|&v| Gf256::new(v)).collect()),
                payload: payload.iter().map(|&v| Gf256::new(v)).collect(),
            };
            let mut buf = Vec::new();
            write_shard(&mut buf, &block).unwrap();
            prop_assert_eq!(read_shard(&buf[..]).unwrap(), block);
        }

        #[test]
        fn single_bit_corruption_never_passes(
            payload in prop::collection::vec(any::<u8>(), 1..100),
            flip_bit in 0usize..64,
        ) {
            // Flip one bit somewhere in the body region; the checksum
            // must catch it (the header region instead yields BadMagic /
            // BadVersion / Invalid — never a silent wrong block).
            let block = CodedBlock {
                level: 1,
                coefficients: CoeffRow::from_dense(vec![Gf256::new(7); 5]),
                payload: payload.iter().map(|&v| Gf256::new(v)).collect(),
            };
            let mut buf = Vec::new();
            write_shard(&mut buf, &block).unwrap();
            let byte = 21 + (flip_bit / 8) % (buf.len() - 21);
            buf[byte] ^= 1 << (flip_bit % 8);
            // The reader should reject the flip; if it ever accepts one
            // (a flipped padding bit, which the format has none of), it
            // must still return the original block.
            if let Ok(decoded) = read_shard(&buf[..]) {
                prop_assert_eq!(decoded, block);
            }
        }

        #[test]
        fn reader_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..200)) {
            let _ = read_shard(&data[..]);
            let _ = Manifest::read_from(&data[..]);
        }
    }

    /// Bytes in front of a container body: magic, version, body length
    /// and checksum.
    const HEADER: usize = 17;

    /// Re-stamps the body length and checksum after the body was edited,
    /// so a reader parses past the integrity check.
    fn restamp(buf: &mut [u8]) {
        let body_len = (buf.len() - HEADER) as u32;
        buf[5..9].copy_from_slice(&body_len.to_le_bytes());
        let checksum = fnv1a64(&buf[HEADER..]);
        buf[9..HEADER].copy_from_slice(&checksum.to_le_bytes());
    }

    /// Applies one edit to the body of `buf`: overwrite a byte, insert
    /// one, delete one, or overwrite a 4-byte window with an extreme
    /// count (level counts and sizes, and shard lengths, are `u32`).
    fn mutate(buf: &mut Vec<u8>, (at, byte, op): (usize, u8, usize)) {
        let body = buf.len() - HEADER;
        let at = HEADER + at % (body + 1);
        match op {
            0 if at < buf.len() => buf[at] = byte,
            1 => buf.insert(at, byte),
            2 if at < buf.len() => {
                buf.remove(at);
            }
            _ => {
                let extreme = [0, 1, u32::MAX, u32::MAX / 2 + 1][usize::from(byte) % 4];
                for (k, b) in extreme.to_le_bytes().into_iter().enumerate() {
                    if let Some(slot) = buf.get_mut(at + k) {
                        *slot = b;
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn readers_never_panic_on_restamped_body_mutants(
            levels in prop::collection::vec(1u32..50, 1..5),
            block_size in 1u32..64,
            n_coeffs in 0usize..40,
            payload_len in 0usize..40,
            edits in prop::collection::vec((any::<usize>(), any::<u8>(), 0usize..4), 1..6),
        ) {
            let blocks: u64 = levels.iter().map(|&s| u64::from(s)).sum();
            let manifest = Manifest {
                file_len: blocks * u64::from(block_size),
                block_size,
                scheme: Scheme::Plc,
                level_sizes: levels,
                file_hash: 7,
            };
            let mut mbuf = Vec::new();
            manifest.write_to(&mut mbuf).unwrap();
            let shard = CodedBlock {
                level: n_coeffs % 3,
                coefficients: CoeffRow::from_dense(vec![Gf256::new(3); n_coeffs]),
                payload: vec![Gf256::new(5); payload_len],
            };
            let mut sbuf = Vec::new();
            write_shard(&mut sbuf, &shard).unwrap();
            for &edit in &edits {
                mutate(&mut mbuf, edit);
                mutate(&mut sbuf, edit);
            }
            restamp(&mut mbuf);
            restamp(&mut sbuf);

            // Whatever parses must be well-formed and write back to the
            // very bytes it was read from.
            if let Ok(m) = Manifest::read_from(&mbuf[..]) {
                prop_assert!(m.block_size > 0 && m.file_len > 0);
                prop_assert_eq!(
                    m.total_blocks() as u64,
                    m.file_len.div_ceil(u64::from(m.block_size))
                );
                let _ = m.profile();
                let mut back = Vec::new();
                m.write_to(&mut back).unwrap();
                prop_assert_eq!(back, mbuf);
            }
            if let Ok(block) = read_shard(&sbuf[..]) {
                let mut back = Vec::new();
                write_shard(&mut back, &block).unwrap();
                prop_assert_eq!(back, sbuf);
            }
        }
    }
}
