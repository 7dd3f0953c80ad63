//! The `encode`, `decode` and `info` operations.

use std::ffi::OsStr;
use std::fs;
use std::path::{Path, PathBuf};

use prlc_core::{
    Encoder, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme, SlcDecoder,
};
use prlc_gf::{Gf256, GfElem};
use prlc_obs::baseline::fnv1a64;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::format::{self, FormatError, Manifest};

/// Options for [`encode`].
#[derive(Debug, Clone)]
pub struct EncodeOptions {
    /// Source-block payload size in bytes.
    pub block_size: usize,
    /// Per-level shares of the file's *leading* bytes, most important
    /// first (normalised; e.g. `[10, 30, 60]`).
    pub level_shares: Vec<f64>,
    /// Shards generated per source block (`M = ceil(overhead · N)`).
    pub overhead: f64,
    /// The coding scheme.
    pub scheme: Scheme,
    /// Priority distribution across levels for shard generation; `None`
    /// uses the uniform distribution.
    pub distribution: Option<Vec<f64>>,
    /// RNG seed (shard coefficients).
    pub seed: u64,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            block_size: 1024,
            level_shares: vec![10.0, 30.0, 60.0],
            overhead: 2.0,
            scheme: Scheme::Plc,
            distribution: None,
            seed: 0x1DEA5,
        }
    }
}

/// Errors surfaced by the CLI operations.
#[derive(Debug)]
pub enum CliError {
    /// Container-format or I/O failure.
    Format(FormatError),
    /// Invalid user input (message attached).
    Usage(String),
    /// Recovery failed (message attached).
    Recovery(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Format(e) => write!(f, "{e}"),
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Recovery(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<FormatError> for CliError {
    fn from(e: FormatError) -> Self {
        CliError::Format(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Format(FormatError::Io(e))
    }
}

/// Splits `n` blocks into levels proportional to `shares` (each level
/// gets at least one block while blocks remain).
fn split_levels(n: usize, shares: &[f64]) -> Vec<usize> {
    let levels = shares.len().min(n).max(1);
    let total: f64 = shares[..levels].iter().sum();
    let mut sizes = vec![1usize; levels];
    let mut assigned = levels;
    // Largest-remainder on the blocks beyond the 1-per-level floor.
    let spare = n - assigned;
    let mut remainders: Vec<(usize, f64)> = Vec::new();
    for (i, &s) in shares[..levels].iter().enumerate() {
        let exact = s / total * spare as f64;
        let floor = exact.floor() as usize;
        sizes[i] += floor;
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(i, _) in remainders.iter().take(n - assigned) {
        sizes[i] += 1;
    }
    sizes
}

/// Encodes `input` into shard files under `out_dir` (plus
/// `manifest.prlcm`). Returns the number of shards written.
///
/// # Errors
///
/// Returns [`CliError`] for unusable options, I/O failures or an empty
/// input file.
pub fn encode(input: &Path, out_dir: &Path, opts: &EncodeOptions) -> Result<usize, CliError> {
    if opts.block_size == 0 {
        return Err(CliError::Usage("block size must be positive".into()));
    }
    if opts.overhead < 1.0 {
        return Err(CliError::Usage(format!(
            "overhead must be >= 1.0, got {}",
            opts.overhead
        )));
    }
    if opts.level_shares.is_empty()
        || opts
            .level_shares
            .iter()
            .any(|&s| !s.is_finite() || s <= 0.0)
    {
        return Err(CliError::Usage("level shares must be positive".into()));
    }
    let data = fs::read(input)?;
    if data.is_empty() {
        return Err(CliError::Usage("input file is empty".into()));
    }

    let n = data.len().div_ceil(opts.block_size);
    let sizes = split_levels(n, &opts.level_shares);
    let profile =
        PriorityProfile::new(sizes.clone()).map_err(|e| CliError::Usage(e.to_string()))?;

    // Chop (and zero-pad) the file into source payloads.
    let sources: Vec<Vec<Gf256>> = (0..n)
        .map(|i| {
            let start = i * opts.block_size;
            let end = ((i + 1) * opts.block_size).min(data.len());
            let mut block: Vec<Gf256> = data[start..end].iter().map(|&b| Gf256::new(b)).collect();
            block.resize(opts.block_size, Gf256::ZERO);
            block
        })
        .collect();

    let dist = match &opts.distribution {
        Some(w) => PriorityDistribution::from_weights(w.clone())
            .map_err(|e| CliError::Usage(e.to_string()))?,
        None => PriorityDistribution::uniform(profile.num_levels()),
    };
    if dist.num_levels() != profile.num_levels() {
        return Err(CliError::Usage(format!(
            "distribution has {} levels, file profile has {}",
            dist.num_levels(),
            profile.num_levels()
        )));
    }

    fs::create_dir_all(out_dir)?;
    let manifest = Manifest {
        file_len: data.len() as u64,
        block_size: opts.block_size as u32,
        scheme: opts.scheme,
        level_sizes: sizes.iter().map(|&s| s as u32).collect(),
        file_hash: fnv1a64(&data),
    };
    let mut mfile = fs::File::create(out_dir.join("manifest.prlcm"))?;
    manifest.write_to(&mut mfile)?;

    let m = (opts.overhead * n as f64).ceil() as usize;
    let encoder = Encoder::new(opts.scheme, profile);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // Deterministic per-level shard counts (so `info` can reason about
    // what should exist), shuffled deterministically across file names.
    let counts = dist.allocate(m);
    let mut shard_idx = 0usize;
    for (level, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            let block = encoder.encode(level, &sources, &mut rng);
            let path = out_dir.join(format!("shard-{shard_idx:05}.prlc"));
            let mut f = fs::File::create(path)?;
            format::write_shard(&mut f, &block)?;
            shard_idx += 1;
        }
    }
    Ok(shard_idx)
}

/// Options for [`decode`].
#[derive(Debug, Clone, Default)]
pub struct DecodeOptions {
    /// Write whatever decodable *prefix* exists even when full recovery
    /// is impossible.
    pub allow_partial: bool,
}

/// The result of a decode run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// Whether the whole file was recovered (and its hash verified).
    pub complete: bool,
    /// Bytes written to the output file.
    pub recovered_bytes: u64,
    /// Priority levels fully recovered (strict prefix).
    pub levels_recovered: usize,
    /// Total priority levels.
    pub levels_total: usize,
    /// Shards successfully read.
    pub shards_read: usize,
    /// Shards skipped as corrupt/invalid.
    pub shards_skipped: usize,
}

/// Recovers a file from the shards in `dir`.
///
/// # Errors
///
/// Returns [`CliError::Recovery`] when nothing recoverable exists (or
/// recovery is partial and `allow_partial` is off), and
/// [`CliError::Format`] for manifest problems.
pub fn decode(dir: &Path, output: &Path, opts: &DecodeOptions) -> Result<DecodeOutcome, CliError> {
    let manifest = Manifest::read_from(fs::File::open(dir.join("manifest.prlcm"))?)?;
    let profile = manifest.profile()?;
    let n = profile.total_blocks();

    let mut shards_read = 0usize;
    let mut shards_skipped = 0usize;

    enum AnyDecoder {
        Slc(SlcDecoder<Gf256>),
        Plc(PlcDecoder<Gf256>),
    }
    // Built by the first shard that fits the manifest, so its size is
    // bounded by input actually read, not by the manifest's block count.
    let mut decoder = None;

    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "prlc"))
        .collect();
    paths.sort();
    for path in paths {
        let block = match fs::File::open(&path)
            .map_err(FormatError::Io)
            .and_then(format::read_shard)
        {
            Ok(b) => b,
            Err(_) => {
                shards_skipped += 1;
                continue;
            }
        };
        // An SLC shard combines only its own level's blocks. One with
        // coefficients outside that range is hostile or foreign: the
        // per-level decoder would drop the stray terms and decode the
        // wrong combination.
        if block.coefficients.len() != n
            || block.payload.len() != manifest.block_size as usize
            || block.level >= profile.num_levels()
            || (manifest.scheme == Scheme::Slc && {
                let range = profile.blocks_of(block.level);
                block
                    .coefficients
                    .iter_nonzeros()
                    .any(|(i, _)| !range.contains(&i))
            })
        {
            shards_skipped += 1;
            continue;
        }
        shards_read += 1;
        match decoder.get_or_insert_with(|| match manifest.scheme {
            Scheme::Slc => AnyDecoder::Slc(SlcDecoder::with_payloads(profile.clone())),
            _ => AnyDecoder::Plc(PlcDecoder::with_payloads(profile.clone())),
        }) {
            AnyDecoder::Slc(d) => {
                d.insert_block(&block);
            }
            AnyDecoder::Plc(d) => {
                d.insert_block(&block);
            }
        }
    }

    let (levels_recovered, complete) = match &decoder {
        Some(AnyDecoder::Slc(d)) => (d.decoded_levels(), d.is_complete()),
        Some(AnyDecoder::Plc(d)) => (d.decoded_levels(), d.is_complete()),
        None => (0, false),
    };
    let recovered = |idx: usize| -> Option<&[Gf256]> {
        match &decoder {
            Some(AnyDecoder::Slc(d)) => d.recovered(idx),
            Some(AnyDecoder::Plc(d)) => d.recovered(idx),
            None => None,
        }
    };

    // Assemble the recovered byte prefix: consecutive decoded blocks
    // from the front (PLC decodes prefixes; SLC level islands beyond a
    // gap are not written, matching the strict model).
    let mut bytes: Vec<u8> = Vec::new();
    for idx in 0..n {
        match recovered(idx) {
            Some(payload) => bytes.extend(payload.iter().map(|g| g.raw())),
            None => break,
        }
    }
    bytes.truncate(manifest.file_len as usize);

    if complete {
        if fnv1a64(&bytes) != manifest.file_hash {
            return Err(CliError::Recovery(
                "recovered file fails its integrity check".into(),
            ));
        }
    } else if !opts.allow_partial {
        return Err(CliError::Recovery(format!(
            "only {levels_recovered}/{} levels recoverable from {shards_read} shards; \
             rerun with --allow-partial to write the decodable prefix",
            profile.num_levels()
        )));
    }
    if bytes.is_empty() && !complete {
        return Err(CliError::Recovery(format!(
            "nothing recoverable from {shards_read} shards"
        )));
    }
    fs::write(output, &bytes)?;

    Ok(DecodeOutcome {
        complete,
        recovered_bytes: bytes.len() as u64,
        levels_recovered,
        levels_total: profile.num_levels(),
        shards_read,
        shards_skipped,
    })
}

/// A summary of a shard directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoReport {
    /// The parsed manifest.
    pub manifest: Manifest,
    /// Readable shards per level.
    pub shards_per_level: Vec<usize>,
    /// Corrupt or foreign files skipped.
    pub shards_skipped: usize,
}

/// Inspects a shard directory without decoding payloads.
///
/// # Errors
///
/// Returns [`CliError::Format`] when the manifest is missing or corrupt.
pub fn info(dir: &Path) -> Result<InfoReport, CliError> {
    let manifest = Manifest::read_from(fs::File::open(dir.join("manifest.prlcm"))?)?;
    let levels = manifest.level_sizes.len();
    let mut shards_per_level = vec![0usize; levels];
    let mut shards_skipped = 0usize;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension() != Some(OsStr::new("prlc")) {
            continue;
        }
        match fs::File::open(&path)
            .map_err(FormatError::Io)
            .and_then(format::read_shard)
        {
            Ok(b) if b.level < levels => shards_per_level[b.level] += 1,
            _ => shards_skipped += 1,
        }
    }
    Ok(InfoReport {
        manifest,
        shards_per_level,
        shards_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let c = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("prlc-cli-test-{tag}-{}-{c}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_file(dir: &Path, len: usize) -> PathBuf {
        let path = dir.join("input.bin");
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        fs::write(&path, data).unwrap();
        path
    }

    #[test]
    fn split_levels_properties() {
        assert_eq!(split_levels(10, &[1.0, 1.0]), vec![5, 5]);
        // Proportional within rounding (the 1-per-level floor shifts the
        // largest-remainder split by at most a block or two).
        let sizes = split_levels(100, &[10.0, 30.0, 60.0]);
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        for (got, want) in sizes.iter().zip([10.0f64, 30.0, 60.0]) {
            assert!((*got as f64 - want).abs() <= 2.0, "{sizes:?}");
        }
        // Fewer blocks than levels: levels collapse.
        assert_eq!(split_levels(2, &[1.0, 1.0, 1.0]), vec![1, 1]);
        // Every level gets at least one block.
        let sizes = split_levels(4, &[0.01, 0.01, 99.0]);
        assert_eq!(sizes.iter().sum::<usize>(), 4);
        assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let dir = temp_dir("roundtrip");
        let input = sample_file(&dir, 10_000);
        let shards = dir.join("shards");
        let n_shards = encode(&input, &shards, &EncodeOptions::default()).unwrap();
        assert!(n_shards >= 10 * 2); // N = 10 blocks, overhead 2

        let out = dir.join("recovered.bin");
        let outcome = decode(&shards, &out, &DecodeOptions::default()).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.recovered_bytes, 10_000);
        assert_eq!(outcome.levels_recovered, outcome.levels_total);
        assert_eq!(fs::read(&input).unwrap(), fs::read(&out).unwrap());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn partial_decode_recovers_prefix_after_losses() {
        let dir = temp_dir("partial");
        let input = sample_file(&dir, 40_000); // 40 blocks
        let shards = dir.join("shards");
        encode(
            &input,
            &shards,
            &EncodeOptions {
                overhead: 1.5,
                ..EncodeOptions::default()
            },
        )
        .unwrap();

        // Destroy most of the low-priority shards: list shard files,
        // remove the back half (level parts are written in order, so the
        // tail holds bulk-level shards).
        let mut files: Vec<PathBuf> = fs::read_dir(&shards)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "prlc"))
            .collect();
        files.sort();
        for f in files.iter().skip(files.len() / 3) {
            fs::remove_file(f).unwrap();
        }

        let out = dir.join("partial.bin");
        // Without --allow-partial this fails.
        assert!(matches!(
            decode(&shards, &out, &DecodeOptions::default()),
            Err(CliError::Recovery(_))
        ));
        let outcome = decode(
            &shards,
            &out,
            &DecodeOptions {
                allow_partial: true,
            },
        )
        .unwrap();
        assert!(!outcome.complete);
        assert!(outcome.levels_recovered >= 1, "{outcome:?}");
        assert!(outcome.recovered_bytes > 0);
        // The recovered prefix matches the original bytes exactly.
        let original = fs::read(&input).unwrap();
        let partial = fs::read(&out).unwrap();
        assert_eq!(&original[..partial.len()], &partial[..]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_shards_are_skipped() {
        let dir = temp_dir("corrupt");
        let input = sample_file(&dir, 5_000);
        let shards = dir.join("shards");
        encode(&input, &shards, &EncodeOptions::default()).unwrap();
        // Corrupt one shard.
        let victim = shards.join("shard-00000.prlc");
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&victim, bytes).unwrap();

        let out = dir.join("recovered.bin");
        let outcome = decode(&shards, &out, &DecodeOptions::default()).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.shards_skipped, 1);
        assert_eq!(fs::read(&input).unwrap(), fs::read(&out).unwrap());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn info_reports_levels() {
        let dir = temp_dir("info");
        let input = sample_file(&dir, 12_345);
        let shards = dir.join("shards");
        let written = encode(&input, &shards, &EncodeOptions::default()).unwrap();
        let report = info(&shards).unwrap();
        assert_eq!(report.shards_per_level.iter().sum::<usize>(), written);
        assert_eq!(report.manifest.file_len, 12_345);
        assert_eq!(report.shards_skipped, 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn usage_errors() {
        let dir = temp_dir("usage");
        let input = sample_file(&dir, 100);
        let bad = EncodeOptions {
            overhead: 0.5,
            ..EncodeOptions::default()
        };
        assert!(matches!(
            encode(&input, &dir.join("s"), &bad),
            Err(CliError::Usage(_))
        ));
        let empty = dir.join("empty.bin");
        fs::write(&empty, b"").unwrap();
        assert!(matches!(
            encode(&empty, &dir.join("s"), &EncodeOptions::default()),
            Err(CliError::Usage(_))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn slc_scheme_roundtrip() {
        let dir = temp_dir("slc");
        let input = sample_file(&dir, 8_192);
        let shards = dir.join("shards");
        encode(
            &input,
            &shards,
            &EncodeOptions {
                scheme: Scheme::Slc,
                overhead: 2.5,
                ..EncodeOptions::default()
            },
        )
        .unwrap();
        let out = dir.join("r.bin");
        let outcome = decode(&shards, &out, &DecodeOptions::default()).unwrap();
        assert!(outcome.complete);
        assert_eq!(fs::read(&input).unwrap(), fs::read(&out).unwrap());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn slc_shard_with_coefficients_outside_its_level_is_skipped() {
        let dir = temp_dir("slc-hostile");
        let input = sample_file(&dir, 8_192);
        let shards = dir.join("shards");
        encode(
            &input,
            &shards,
            &EncodeOptions {
                scheme: Scheme::Slc,
                overhead: 2.5,
                ..EncodeOptions::default()
            },
        )
        .unwrap();
        // A checksum-valid shard whose coefficients stray past its level:
        // take a real shard and add a term in a block of another level.
        let manifest =
            Manifest::read_from(fs::File::open(shards.join("manifest.prlcm")).unwrap()).unwrap();
        let profile = manifest.profile().unwrap();
        let mut block =
            format::read_shard(fs::File::open(shards.join("shard-00000.prlc")).unwrap()).unwrap();
        let range = profile.blocks_of(block.level);
        let stray = if range.start > 0 { 0 } else { range.end };
        assert!(stray < profile.total_blocks());
        block.coefficients.add_assign_at(stray, Gf256::ONE);
        let f = fs::File::create(shards.join("shard-99999.prlc")).unwrap();
        format::write_shard(f, &block).unwrap();

        let out = dir.join("r.bin");
        let outcome = decode(&shards, &out, &DecodeOptions::default()).unwrap();
        assert_eq!(outcome.shards_skipped, 1);
        assert!(outcome.complete);
        assert_eq!(fs::read(&input).unwrap(), fs::read(&out).unwrap());
        fs::remove_dir_all(dir).unwrap();
    }
}
