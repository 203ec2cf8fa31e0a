//! `bgw-io`: binary file formats for wavefunctions and dielectric
//! matrices.
//!
//! BerkeleyGW's modules communicate through large binary files (WFN,
//! epsmat) whose read time dominates the "incl. I/O" rows of paper
//! Table 5 and flattens the strong-scaling curves of Fig. 6. This crate
//! is that substrate: a compact little-endian container ("BGWR") for the
//! workspace's band sets and complex matrices, with checksum validation,
//! so the I/O experiments measure *real* file traffic instead of modeling
//! it.
//!
//! Format: magic `BGWR`, format version, a record tag, shape header, and
//! a raw little-endian `f64` payload followed by an FNV-1a checksum of
//! the payload bytes. The shape header is not checksummed, so every count
//! it holds is checked against the bytes left in the file before it sizes
//! anything: a flipped header field is [`IoError::BadHeader`], never an
//! overflow or an allocation the file could not fill.

#![warn(missing_docs)]

use bgw_linalg::CMatrix;
use bgw_num::{c64, Complex64};
use bgw_pwdft::Wavefunctions;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"BGWR";
const VERSION: u32 = 1;

/// Smallest matrix record on disk: a 16-byte header, two dims and the
/// checksum of an empty payload.
const MIN_MATRIX_RECORD: u64 = 16 + 2 * 8 + 8;

/// Record tags identifying what a file holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordTag {
    /// A band set (energies + coefficients + valence count).
    Wavefunctions = 1,
    /// A dense complex matrix (chi, eps^-1, Sigma, ...).
    Matrix = 2,
    /// A [`Checkpoint`]: stage/step markers, scalar metadata, and a
    /// sequence of embedded matrix records.
    Checkpoint = 3,
}

/// Version of the [`RecordTag::Checkpoint`] record layout. Bumped whenever
/// the field set changes; readers reject versions they do not understand
/// rather than misparse.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Errors from reading a BGWR file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Not a BGWR file, unsupported version, or a header count the file
    /// cannot hold.
    BadHeader(String),
    /// The payload checksum did not match (truncation/corruption).
    ChecksumMismatch {
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The record tag did not match what the caller asked for.
    WrongRecord {
        /// Tag found in the file.
        found: u32,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::BadHeader(m) => write!(f, "bad BGWR header: {m}"),
            IoError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#x}, read {actual:#x}"
                )
            }
            IoError::WrongRecord { found } => write!(f, "unexpected record tag {found}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// FNV-1a-64 over a byte stream: the record checksum here and the
/// artifact-key digest of `bgw-serve`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn write_header<W: Write>(w: &mut W, tag: RecordTag, dims: &[u64]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(tag as u32).to_le_bytes())?;
    w.write_all(&(dims.len() as u32).to_le_bytes())?;
    for &d in dims {
        w.write_all(&d.to_le_bytes())?;
    }
    Ok(())
}

/// Takes `n` bytes (`None`: the count overflowed) off `left`, the bytes of
/// the file the decoder has not consumed yet.
fn take(left: &mut u64, n: Option<u64>, what: &str) -> Result<(), IoError> {
    match n {
        Some(n) if n <= *left => {
            *left -= n;
            Ok(())
        }
        _ => Err(IoError::BadHeader(format!(
            "{what} needs more than the {left} bytes left in the file"
        ))),
    }
}

/// `a * b` as a `usize` count, `None` on overflow.
fn count(a: u64, b: u64) -> Option<usize> {
    a.checked_mul(b).and_then(|n| usize::try_from(n).ok())
}

fn read_header<R: Read>(r: &mut R, expect: RecordTag, left: &mut u64) -> Result<Vec<u64>, IoError> {
    take(left, Some(16), "record header")?;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(IoError::BadHeader(format!("magic {magic:?}")));
    }
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let version = u32::from_le_bytes(b4);
    if version != VERSION {
        return Err(IoError::BadHeader(format!("version {version}")));
    }
    r.read_exact(&mut b4)?;
    let tag = u32::from_le_bytes(b4);
    if tag != expect as u32 {
        return Err(IoError::WrongRecord { found: tag });
    }
    r.read_exact(&mut b4)?;
    let ndims = u32::from_le_bytes(b4) as usize;
    if ndims > 8 {
        return Err(IoError::BadHeader(format!("{ndims} dims")));
    }
    take(left, Some(8 * ndims as u64), "shape header")?;
    let mut dims = Vec::with_capacity(ndims);
    let mut b8 = [0u8; 8];
    for _ in 0..ndims {
        r.read_exact(&mut b8)?;
        dims.push(u64::from_le_bytes(b8));
    }
    Ok(dims)
}

fn write_payload<W: Write>(w: &mut W, data: &[f64]) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(data.len() * 8);
    for &x in data {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    w.write_all(&bytes)?;
    w.write_all(&fnv1a(&bytes).to_le_bytes())?;
    Ok(())
}

/// Reads a payload of `n` values (`None`: the count overflowed) and its
/// checksum, after checking the file holds them.
fn read_payload<R: Read>(r: &mut R, n: Option<usize>, left: &mut u64) -> Result<Vec<f64>, IoError> {
    let len = n.and_then(|n| n.checked_mul(8));
    take(left, len.and_then(|b| (b as u64).checked_add(8)), "payload")?;
    let mut bytes = vec![0u8; len.unwrap_or(0)];
    r.read_exact(&mut bytes)?;
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let expected = u64::from_le_bytes(b8);
    let actual = fnv1a(&bytes);
    if expected != actual {
        return Err(IoError::ChecksumMismatch { expected, actual });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Writes a band set to `path` (the WFN-file analogue).
pub fn write_wavefunctions(path: &Path, wf: &Wavefunctions) -> Result<u64, IoError> {
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    let nb = wf.n_bands() as u64;
    let ng = wf.n_g() as u64;
    write_header(
        &mut w,
        RecordTag::Wavefunctions,
        &[nb, ng, wf.n_valence as u64],
    )?;
    let mut data = Vec::with_capacity(wf.n_bands() + 2 * wf.n_bands() * wf.n_g());
    data.extend_from_slice(&wf.energies);
    for z in wf.coeffs.as_slice() {
        data.push(z.re);
        data.push(z.im);
    }
    write_payload(&mut w, &data)?;
    w.flush()?;
    Ok((data.len() * 8 + 4 + 4 + 4 + 4 + 24 + 8) as u64)
}

/// Reads a band set back.
pub fn read_wavefunctions(path: &Path) -> Result<Wavefunctions, IoError> {
    let f = std::fs::File::open(path)?;
    let mut left = f.metadata()?.len();
    let mut r = io::BufReader::new(f);
    let dims = read_header(&mut r, RecordTag::Wavefunctions, &mut left)?;
    if dims.len() != 3 {
        return Err(IoError::BadHeader(format!("{} dims for WFN", dims.len())));
    }
    // The band solver keeps at least one occupied and one empty band;
    // the gap and `n_conduction` index and subtract on that.
    if dims[2] == 0 || dims[2] >= dims[0] {
        return Err(IoError::BadHeader(format!(
            "{} valence bands of {} for WFN",
            dims[2], dims[0]
        )));
    }
    // energies (nb) + coefficients (2 nb ng)
    let n = dims[1]
        .checked_mul(2)
        .and_then(|g2| g2.checked_add(1))
        .and_then(|per_band| count(dims[0], per_band));
    let data = read_payload(&mut r, n, &mut left)?;
    let (nb, ng, nv) = (dims[0] as usize, dims[1] as usize, dims[2] as usize);
    let energies = data[..nb].to_vec();
    let coeffs_flat: Vec<Complex64> = data[nb..]
        .chunks_exact(2)
        .map(|p| c64(p[0], p[1]))
        .collect();
    Ok(Wavefunctions {
        energies,
        coeffs: CMatrix::from_vec(nb, ng, coeffs_flat),
        n_valence: nv,
    })
}

/// Writes one matrix record (header + checksummed payload) into an open
/// stream. Returns the payload byte count.
fn write_matrix_to<W: Write>(w: &mut W, m: &CMatrix) -> Result<u64, IoError> {
    write_header(w, RecordTag::Matrix, &[m.nrows() as u64, m.ncols() as u64])?;
    let mut data = Vec::with_capacity(2 * m.nrows() * m.ncols());
    for z in m.as_slice() {
        data.push(z.re);
        data.push(z.im);
    }
    write_payload(w, &data)?;
    Ok((data.len() * 8) as u64)
}

/// Reads one matrix record from an open stream.
fn read_matrix_from<R: Read>(r: &mut R, left: &mut u64) -> Result<CMatrix, IoError> {
    let dims = read_header(r, RecordTag::Matrix, left)?;
    if dims.len() != 2 {
        return Err(IoError::BadHeader(format!(
            "{} dims for matrix",
            dims.len()
        )));
    }
    let n = dims[0]
        .checked_mul(2)
        .and_then(|re_im| count(re_im, dims[1]));
    let data = read_payload(r, n, left)?;
    let (nr, nc) = (dims[0] as usize, dims[1] as usize);
    let flat: Vec<Complex64> = data.chunks_exact(2).map(|p| c64(p[0], p[1])).collect();
    Ok(CMatrix::from_vec(nr, nc, flat))
}

/// Writes a dense complex matrix (the epsmat-file analogue). Returns the
/// number of bytes written.
pub fn write_matrix(path: &Path, m: &CMatrix) -> Result<u64, IoError> {
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    let bytes = write_matrix_to(&mut w, m)?;
    w.flush()?;
    Ok(bytes)
}

/// Reads a dense complex matrix back.
pub fn read_matrix(path: &Path) -> Result<CMatrix, IoError> {
    let f = std::fs::File::open(path)?;
    let mut left = f.metadata()?.len();
    let mut r = io::BufReader::new(f);
    read_matrix_from(&mut r, &mut left)
}

/// A checkpoint record: a stage marker and a step count (interpreted by
/// the writer), a small vector of scalar metadata, and a sequence of
/// matrices. The program writes one kind, the serve artifact store's
/// screening record (`bgw_core::screening_to_checkpoint`).
///
/// Every section of the on-disk record is independently checksummed, so a
/// record truncated or corrupted by a mid-write crash is *detected* by
/// [`read_checkpoint_file`] rather than decoded.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Stage marker (interpreted by the writer).
    pub stage: u64,
    /// Progress within the stage (a screening record: its frequency count).
    pub step: u64,
    /// Scalar metadata accompanying the matrices.
    pub meta: Vec<f64>,
    /// The stored matrices (a screening record: its eps^-1 blocks).
    pub matrices: Vec<CMatrix>,
}

/// Writes one checkpoint record to `path` (parent directory created if
/// needed). Returns the payload bytes written.
///
/// The write is atomic at the filesystem level: the record is assembled
/// in a `.tmp` sibling and renamed into place, so a crash mid-write leaves
/// only that sibling, never a torn record under the final name. This is
/// the artifact-record primitive of the serving layer's content-hash
/// store: an artifact file IS a checkpoint record, read back through the
/// checksummed [`read_checkpoint_file`].
pub fn write_checkpoint_file(path: &Path, ckpt: &Checkpoint) -> Result<u64, IoError> {
    let _span = bgw_trace::span!("io.ckpt.write");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp_path = path.with_file_name(tmp_name);
    let write = || -> Result<u64, IoError> {
        let mut bytes = 0u64;
        {
            let f = std::fs::File::create(&tmp_path)?;
            let mut w = io::BufWriter::new(f);
            write_header(
                &mut w,
                RecordTag::Checkpoint,
                &[
                    CHECKPOINT_VERSION,
                    ckpt.stage,
                    ckpt.step,
                    ckpt.meta.len() as u64,
                    ckpt.matrices.len() as u64,
                ],
            )?;
            write_payload(&mut w, &ckpt.meta)?;
            bytes += (ckpt.meta.len() * 8) as u64;
            for m in &ckpt.matrices {
                bytes += write_matrix_to(&mut w, m)?;
            }
            w.flush()?;
        }
        std::fs::rename(&tmp_path, path)?;
        Ok(bytes)
    };
    // A failed write, flush or rename leaves no `.tmp` behind: no scan
    // of the store directory would ever see or reclaim it.
    let bytes = write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp_path);
    })?;
    bgw_perf::counters::record_ckpt_write(bytes);
    Ok(bytes)
}

/// Reads one checkpoint file, validating version and every checksum.
pub fn read_checkpoint_file(path: &Path) -> Result<Checkpoint, IoError> {
    let _span = bgw_trace::span!("io.ckpt.read");
    let f = std::fs::File::open(path)?;
    let mut left = f.metadata()?.len();
    let mut r = io::BufReader::new(f);
    let dims = read_header(&mut r, RecordTag::Checkpoint, &mut left)?;
    if dims.len() != 5 {
        return Err(IoError::BadHeader(format!(
            "{} dims for checkpoint",
            dims.len()
        )));
    }
    if dims[0] != CHECKPOINT_VERSION {
        return Err(IoError::BadHeader(format!(
            "checkpoint version {} (supported: {CHECKPOINT_VERSION})",
            dims[0]
        )));
    }
    let (stage, step) = (dims[1], dims[2]);
    let meta = read_payload(&mut r, usize::try_from(dims[3]).ok(), &mut left)?;
    // Each embedded matrix record is at least its two-dim header and a
    // checksum, so the bytes left bound the count before it sizes a Vec.
    let n_mats = dims[4];
    if n_mats > left / MIN_MATRIX_RECORD {
        return Err(IoError::BadHeader(format!(
            "{n_mats} matrices need more than the {left} bytes left in the file"
        )));
    }
    let mut matrices = Vec::with_capacity(n_mats as usize);
    let mut bytes = (meta.len() * 8) as u64;
    for _ in 0..n_mats {
        let m = read_matrix_from(&mut r, &mut left)?;
        bytes += (2 * m.nrows() * m.ncols() * 8) as u64;
        matrices.push(m);
    }
    bgw_perf::counters::record_ckpt_read(bytes);
    Ok(Checkpoint {
        stage,
        step,
        meta,
        matrices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgw_pwdft::{solve_bands, Crystal, GSphere, Species};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bgw_io_test_{}_{name}", std::process::id()));
        p
    }

    fn sample_wf() -> Wavefunctions {
        let c = Crystal::diamond(Species::Si, bgw_pwdft::pseudo::SI_A0);
        let sph = GSphere::new(&c.lattice, 2.0);
        solve_bands(&c, &sph, 20)
    }

    #[test]
    fn wavefunctions_roundtrip() {
        let wf = sample_wf();
        let path = tmp("wfn");
        let bytes = write_wavefunctions(&path, &wf).unwrap();
        assert!(bytes > 0);
        let back = read_wavefunctions(&path).unwrap();
        assert_eq!(back.n_bands(), wf.n_bands());
        assert_eq!(back.n_valence, wf.n_valence);
        assert_eq!(back.energies, wf.energies);
        assert_eq!(back.coeffs.max_abs_diff(&wf.coeffs), 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_roundtrip() {
        let m = CMatrix::random(17, 9, 3);
        let path = tmp("mat");
        write_matrix(&path, &m).unwrap();
        let back = read_matrix(&path).unwrap();
        assert_eq!(back.max_abs_diff(&m), 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let m = CMatrix::random(8, 8, 5);
        let path = tmp("corrupt");
        write_matrix(&path, &m).unwrap();
        // flip one payload byte
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match read_matrix(&path) {
            Err(IoError::ChecksumMismatch { .. }) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let wf = sample_wf();
        let path = tmp("trunc");
        write_wavefunctions(&path, &wf).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        // the intact header promises a payload the file no longer holds
        assert!(matches!(
            read_wavefunctions(&path),
            Err(IoError::BadHeader(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_record_tag_is_detected() {
        let m = CMatrix::random(4, 4, 1);
        let path = tmp("tag");
        write_matrix(&path, &m).unwrap();
        match read_wavefunctions(&path) {
            Err(IoError::WrongRecord { found }) => assert_eq!(found, RecordTag::Matrix as u32),
            other => panic!("tag confusion not detected: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn not_a_bgwr_file() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a BGWR file").unwrap();
        assert!(matches!(read_matrix(&path), Err(IoError::BadHeader(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_roundtrip() {
        let path = tmp("ckpt.bgwr");
        let ckpt = Checkpoint {
            stage: 3,
            step: 17,
            meta: vec![1.5, -2.25, 0.0],
            matrices: vec![CMatrix::random(6, 6, 11), CMatrix::random(4, 9, 12)],
        };
        let bytes = write_checkpoint_file(&path, &ckpt).unwrap();
        assert!(bytes > 0);
        assert_eq!(read_checkpoint_file(&path).unwrap(), ckpt);
        // A flipped byte in the last matrix's payload fails its checksum,
        // and a truncated record fails the header's byte count.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 12;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint_file(&path),
            Err(IoError::ChecksumMismatch { .. })
        ));
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            read_checkpoint_file(&path),
            Err(IoError::BadHeader(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_file_at_arbitrary_path_roundtrips() {
        let dir = tmp("artfile");
        let ckpt = Checkpoint {
            stage: 9,
            step: 1,
            meta: vec![0.25],
            matrices: vec![CMatrix::random(5, 3, 77)],
        };
        // nested parent directories are created on demand
        let path = dir.join("shard_a").join("art_deadbeef.bgwr");
        let bytes = write_checkpoint_file(&path, &ckpt).unwrap();
        assert!(bytes > 0);
        let back = read_checkpoint_file(&path).unwrap();
        assert_eq!(back, ckpt);
        // atomicity: no tmp sibling survives a completed write
        assert!(!path.with_file_name("art_deadbeef.bgwr.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rename_leaves_no_tmp_sibling() {
        // The target is an existing directory: the record is written to
        // its `.tmp` sibling, and the rename over the directory fails.
        let dir = tmp("rename_fails");
        let path = dir.join("art_0000000000000001.bgwr");
        std::fs::create_dir_all(&path).unwrap();
        let ckpt = Checkpoint {
            stage: 9,
            step: 0,
            meta: vec![1.0],
            matrices: vec![],
        };
        assert!(write_checkpoint_file(&path, &ckpt).is_err());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![path.file_name().unwrap().to_os_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_version_gate() {
        let path = tmp("ckptver.bgwr");
        let ckpt = Checkpoint {
            stage: 0,
            step: 0,
            meta: vec![],
            matrices: vec![],
        };
        write_checkpoint_file(&path, &ckpt).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // first dim (version) sits right after magic+version+tag+ndims = 16 bytes
        bytes[16] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint_file(&path),
            Err(IoError::BadHeader(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    /// Writes a valid checkpoint to `path`, then overwrites the
    /// 8-byte header field at `offset` with `value`.
    fn crafted_checkpoint(path: &Path, offset: usize, value: u64) {
        let ckpt = Checkpoint {
            stage: 1,
            step: 2,
            meta: vec![7.0],
            matrices: vec![CMatrix::random(3, 3, 1)],
        };
        write_checkpoint_file(path, &ckpt).unwrap();
        let mut bytes = std::fs::read(path).unwrap();
        bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn crafted_header_counts_are_bad_headers() {
        // The header dims sit after magic + version + tag + ndims (16
        // bytes): version, stage, step, n_meta (byte 40), n_mats (byte
        // 48). The first embedded matrix header follows the 56-byte
        // header and the one-value meta payload with its checksum; its
        // row count is at 56 + 16 + 16 = 88.
        let path = tmp("ckptcrafted.bgwr");
        for (offset, field) in [(40, "n_meta"), (48, "n_mats"), (88, "matrix rows")] {
            crafted_checkpoint(&path, offset, u64::MAX);
            match read_checkpoint_file(&path) {
                Err(IoError::BadHeader(_)) => {}
                other => panic!("{field} = u64::MAX: expected BadHeader, got {other:?}"),
            }
        }
        // The control: the step (byte 32) rewritten to itself reads back.
        crafted_checkpoint(&path, 32, 2);
        assert_eq!(read_checkpoint_file(&path).unwrap().step, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wfn_valence_count_outside_the_bands_is_a_bad_header() {
        // n_valence is the third header dim, at byte 32 after magic +
        // version + tag + ndims (16 bytes), n_bands (16) and n_g (24).
        // The checksum covers only the payload, so an edited count
        // passes it.
        let wf = sample_wf();
        let path = tmp("wfncrafted");
        for nv in [wf.n_bands() as u64, 0] {
            write_wavefunctions(&path, &wf).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[32..40].copy_from_slice(&nv.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match read_wavefunctions(&path) {
                Err(IoError::BadHeader(_)) => {}
                other => panic!("n_valence = {nv}: expected BadHeader, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_messages_are_informative() {
        let e = IoError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("checksum"));
        let e = IoError::WrongRecord { found: 7 };
        assert!(e.to_string().contains("7"));
    }
}
