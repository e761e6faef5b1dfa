//! Crash-safe sealed JSONL files — the one on-disk record primitive under
//! the result store (data, index and LRU files).
//!
//! A sealed file is an append-only JSONL file whose first line is a
//! caller-chosen header, written through a tempfile + atomic rename so
//! no reader ever observes a half-written header. Every later line is a
//! flat-JSON record sealed with the framing's FNV-1a-32 `crc`
//! ([`flatjson::seal`]) and appended as a single `write_all`.
//!
//! **The torn-tail policy.** A writer killed mid-append leaves at most
//! one unterminated final line. Readers ([`read`]) drop it. A writer
//! ([`SealedLog::open`]) truncates it back to the last record boundary
//! once, when it opens the file and before its first append, so a new
//! record can never be spliced onto a torn one. A record whose seal fails
//! in place is reported per record, never parsed into wrong values.
//!
//! `seallog` unit tests pin the reader at every kill offset; the store's
//! every-byte test (`tests/resilience.rs`) pins the writer's repair.

use crate::flatjson::{self, JsonVal};
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// Whether the file starts with exactly `header` and its newline.
fn has_header(f: &mut fs::File, header: &str) -> io::Result<bool> {
    let mut buf = vec![0u8; header.len() + 1];
    match f.read_exact(&mut buf) {
        Ok(()) => Ok(buf[..header.len()] == *header.as_bytes() && buf[header.len()] == b'\n'),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Byte length of the file up to and including its last `\n`.
fn last_boundary(f: &mut fs::File) -> io::Result<u64> {
    let mut end = f.seek(SeekFrom::End(0))?;
    let mut buf = [0u8; 4096];
    while end > 0 {
        let n = end.min(buf.len() as u64);
        f.seek(SeekFrom::Start(end - n))?;
        f.read_exact(&mut buf[..n as usize])?;
        if let Some(i) = buf[..n as usize].iter().rposition(|&b| b == b'\n') {
            return Ok(end - n + i as u64 + 1);
        }
        end -= n;
    }
    Ok(0)
}

/// Append-only writer for a sealed file.
#[derive(Debug)]
pub struct SealedLog {
    file: fs::File,
}

impl SealedLog {
    /// Opens the sealed file at `path` for appending, creating it (header
    /// via tempfile + atomic rename) when missing. An existing file that
    /// does not start with `header` is rotated aside as `<path>.stale` —
    /// never deleted — and a fresh file is started. A torn tail is
    /// truncated back to the last record boundary (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: impl Into<PathBuf>, header: &str) -> io::Result<SealedLog> {
        let path = path.into();
        let mut file = match fs::OpenOptions::new().read(true).write(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Self::create(&path, header, &[]);
            }
            Err(e) => return Err(e),
        };
        if !has_header(&mut file, header)? {
            drop(file);
            fs::rename(&path, sibling(&path, ".stale"))?;
            return Self::create(&path, header, &[]);
        }
        let boundary = last_boundary(&mut file)?;
        if boundary < file.metadata()?.len() {
            file.set_len(boundary)?;
        }
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        Ok(SealedLog { file })
    }

    /// Atomically replaces `path` with a fresh sealed file holding
    /// `header` and the sealed `bodies` (tempfile + rename), and opens it
    /// for appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, header: &str, bodies: &[String]) -> io::Result<SealedLog> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut text = format!("{header}\n");
        for body in bodies {
            text.push_str(&flatjson::seal(body.clone()));
            text.push('\n');
        }
        let tmp = sibling(path, ".tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, path)?;
        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok(SealedLog { file })
    }

    /// Seals and appends one record, returning the byte range `(offset,
    /// len)` it landed at. `open_body` is a flat-JSON object body without
    /// its closing brace (the [`flatjson::seal`] contract), e.g.
    /// `{"conn":1,"req":2,"status":"ok"`. The sealed line goes out in one
    /// `write_all`, so a kill leaves at most a torn tail.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn append(&mut self, open_body: String) -> io::Result<(u64, u32)> {
        let mut line = flatjson::seal(open_body);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        // An append-mode write leaves the position at the end of this
        // record, even if another process appended just before it.
        let end = self.file.stream_position()?;
        Ok((end - line.len() as u64, line.len() as u32))
    }
}

/// One complete line of a sealed file.
#[derive(Debug)]
pub struct Record {
    /// Byte offset of the line in the file.
    pub offset: u64,
    /// Length of the line, newline included.
    pub len: u32,
    /// The record's flat-JSON fields (seal stripped), or why the line
    /// failed its seal or did not parse.
    pub fields: Result<Vec<(String, JsonVal)>, String>,
}

/// What [`read`] recovered from a sealed file.
#[derive(Debug, Default)]
pub struct LogContents {
    /// Every complete line after the header, in file order.
    pub records: Vec<Record>,
    /// Whether the file ended in an unterminated (torn) line. The torn
    /// line is dropped, not parsed.
    pub torn_tail: bool,
}

/// Verifies and parses one sealed line (newline included).
fn parse_line(line: &[u8]) -> Result<Vec<(String, JsonVal)>, String> {
    let line = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    let body = flatjson::check_seal(line.trim_end_matches('\n'))?;
    flatjson::parse_flat(&format!("{body}}}")).ok_or_else(|| "malformed record".to_string())
}

/// Reads the records of a sealed file that start at or after byte `from`
/// (use 0 for all of them), dropping a torn tail.
///
/// # Errors
///
/// Propagates the file read; a file that does not start with `header` is
/// reported as `InvalidData` (it is not this kind of sealed file).
pub fn read(path: &Path, header: &str, from: u64) -> io::Result<LogContents> {
    let mut f = fs::File::open(path)?;
    if !has_header(&mut f, header)? {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} does not start with the header {header}", path.display()),
        ));
    }
    let mut offset = from.max(header.len() as u64 + 1);
    f.seek(SeekFrom::Start(offset))?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    let mut out = LogContents::default();
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        if !line.ends_with(b"\n") {
            out.torn_tail = true;
            break;
        }
        out.records.push(Record { offset, len: line.len() as u32, fields: parse_line(line) });
        offset += line.len() as u64;
    }
    Ok(out)
}

/// Reads and verifies the one record at `offset..offset + len`.
///
/// # Errors
///
/// Describes an I/O failure, a range that does not end a line, or a
/// record that fails its seal.
pub fn read_at(path: &Path, offset: u64, len: u32) -> Result<Vec<(String, JsonVal)>, String> {
    let mut f = fs::File::open(path).map_err(|e| e.to_string())?;
    f.seek(SeekFrom::Start(offset)).map_err(|e| e.to_string())?;
    let mut buf = vec![0u8; len as usize];
    f.read_exact(&mut buf).map_err(|e| e.to_string())?;
    if !buf.ends_with(b"\n") {
        return Err("record range does not end a line".to_string());
    }
    parse_line(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"cmpsim_log\":1}";

    fn temp_log(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cmpsim-seallog-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("log.jsonl")
    }

    fn field(rec: &Record, key: &str) -> Option<JsonVal> {
        let fields = rec.fields.as_ref().ok()?;
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }

    #[test]
    fn append_then_read_roundtrips() {
        let path = temp_log("roundtrip");
        let mut ranges = Vec::new();
        {
            let mut log = SealedLog::open(&path, HEADER).unwrap();
            ranges.push(log.append("{\"req\":1,\"status\":\"ok\"".to_string()).unwrap());
            ranges.push(log.append("{\"req\":2,\"status\":\"err\"".to_string()).unwrap());
        }
        // Reopen appends (same header, no rotation).
        {
            let mut log = SealedLog::open(&path, HEADER).unwrap();
            ranges.push(log.append("{\"req\":3,\"status\":\"ok\"".to_string()).unwrap());
        }
        let got = read(&path, HEADER, 0).unwrap();
        assert_eq!(got.records.len(), 3);
        assert!(!got.torn_tail);
        assert!(got.records.iter().all(|r| r.fields.is_ok()));
        assert_eq!(field(&got.records[2], "req").unwrap().as_u64(), Some(3));
        assert_eq!(field(&got.records[1], "status").unwrap().as_str(), Some("err"));
        // `append` reports exactly the ranges `read` finds, and each one
        // reads back on its own.
        for (rec, &(offset, len)) in got.records.iter().zip(&ranges) {
            assert_eq!((rec.offset, rec.len), (offset, len));
            assert_eq!(read_at(&path, offset, len).as_ref(), rec.fields.as_ref());
        }
        let tail = read(&path, HEADER, ranges[1].0).unwrap();
        assert_eq!(tail.records.len(), 2, "reads resume at a record boundary");
        assert!(read_at(&path, ranges[0].0, ranges[0].1 - 1).is_err(), "a cut range is refused");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn kill_at_every_byte_offset_recovers_a_clean_prefix() {
        // Simulate a writer killed after every possible byte of the file:
        // the reader must recover an intact prefix — never an error,
        // never a half-parsed record — and the writer must repair the
        // tail so its next append reads back.
        let path = temp_log("kill");
        {
            let mut log = SealedLog::open(&path, HEADER).unwrap();
            for i in 0..4u64 {
                log.append(format!("{{\"req\":{i},\"elapsed_us\":{}", 100 + i)).unwrap();
            }
        }
        let full = fs::read(&path).unwrap();
        let header_len = HEADER.len() + 1;
        let cut_path = path.with_extension("cut");
        for cut in header_len..=full.len() {
            fs::write(&cut_path, &full[..cut]).unwrap();
            let got = read(&cut_path, HEADER, 0).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert!(got.records.iter().all(|r| r.fields.is_ok()), "cut at {cut}: torn != corrupt");
            assert_eq!(got.torn_tail, !full[..cut].ends_with(b"\n"));
            // Every recovered record is one of the originals, in order.
            for (i, rec) in got.records.iter().enumerate() {
                assert_eq!(field(rec, "req").unwrap().as_u64(), Some(i as u64));
            }
            let intact = got.records.len();
            SealedLog::open(&cut_path, HEADER).unwrap().append("{\"req\":99".to_string()).unwrap();
            let again = read(&cut_path, HEADER, 0).unwrap();
            assert!(!again.torn_tail && again.records.iter().all(|r| r.fields.is_ok()));
            assert_eq!(again.records.len(), intact + 1, "cut at {cut}: append after repair");
        }
        // Cut inside the header: the file is not (yet) a sealed file.
        for cut in 0..header_len {
            fs::write(&cut_path, &full[..cut]).unwrap();
            assert!(
                read(&cut_path, HEADER, 0).is_err(),
                "cut at {cut} inside header must not parse"
            );
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn inplace_corruption_is_reported_not_served() {
        let path = temp_log("corrupt");
        {
            let mut log = SealedLog::open(&path, HEADER).unwrap();
            log.append("{\"req\":1,\"cells\":32".to_string()).unwrap();
            log.append("{\"req\":2,\"cells\":32".to_string()).unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen("\"req\":1,\"cells\":32", "\"req\":1,\"cells\":99", 1))
            .unwrap();
        let got = read(&path, HEADER, 0).unwrap();
        assert!(got.records[0].fields.as_ref().unwrap_err().contains("crc mismatch"));
        assert_eq!(field(&got.records[1], "req").unwrap().as_u64(), Some(2));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn foreign_file_is_rotated_aside() {
        let path = temp_log("foreign");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, "not a log\n").unwrap();
        let mut log = SealedLog::open(&path, HEADER).unwrap();
        log.append("{\"req\":1".to_string()).unwrap();
        assert_eq!(read(&path, HEADER, 0).unwrap().records.len(), 1);
        assert_eq!(
            fs::read_to_string(sibling(&path, ".stale")).unwrap(),
            "not a log\n",
            "preserved, not deleted"
        );
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
