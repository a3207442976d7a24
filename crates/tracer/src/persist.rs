//! Trace-file serialization.
//!
//! The original ParaCrash writes "a separate file … for each process with
//! traces at each I/O layer" (§5.1) and re-reads them for the correlated
//! analysis. This module gives the simulated stack the same workflow: a
//! [`Recorder`] round-trips through a line-oriented text format, written
//! as one combined file; lines load in any order.
//!
//! Format (one record per line, space-separated, strings percent-encoded):
//!
//! ```text
//! E <id> <layer> <proc> <parent|-> <object|-> <payload…>
//! X <from> <to>
//! ```

use crate::event::{Event, EventId, Layer, Payload, Process, Recorder};
use simfs::{BlockOp, FsOp, StructTag};
use std::fmt::Write as _;

/// Percent-encode spaces, newlines and `%` so fields stay splittable.
fn enc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b' ' => out.push_str("%20"),
            b'\n' => out.push_str("%0A"),
            b'\t' => out.push_str("%09"),
            b'%' => out.push_str("%25"),
            _ => out.push(b as char),
        }
    }
    if out.is_empty() {
        "%00".to_string() // explicit empty marker
    } else {
        out
    }
}

fn dec(s: &str) -> Result<String, ParseError> {
    if s == "%00" {
        return Ok(String::new());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| ParseError::new("truncated escape"))?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| ParseError::new("bad escape"))?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| ParseError::new("non-utf8 string"))
}

fn hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(2 * data.len());
    for b in data {
        let _ = write!(s, "{b:02x}");
    }
    if s.is_empty() {
        "-".into()
    } else {
        s
    }
}

fn unhex(s: &str) -> Result<Vec<u8>, ParseError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return Err(ParseError::new("odd hex length"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| ParseError::new("bad hex")))
        .collect()
}

/// A malformed trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line number, when known.
    pub line: usize,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
            line: 0,
        }
    }

    fn at(mut self, line: usize) -> Self {
        self.line = line;
        self
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error (line {}): {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn layer_str(l: Layer) -> &'static str {
    match l {
        Layer::App => "app",
        Layer::IoLib => "iolib",
        Layer::MpiIo => "mpiio",
        Layer::PfsClient => "pfsclient",
        Layer::PfsServer => "pfsserver",
        Layer::LocalFs => "localfs",
        Layer::Block => "block",
    }
}

fn parse_layer(s: &str) -> Result<Layer, ParseError> {
    Ok(match s {
        "app" => Layer::App,
        "iolib" => Layer::IoLib,
        "mpiio" => Layer::MpiIo,
        "pfsclient" => Layer::PfsClient,
        "pfsserver" => Layer::PfsServer,
        "localfs" => Layer::LocalFs,
        "block" => Layer::Block,
        other => return Err(ParseError::new(format!("unknown layer {other}"))),
    })
}

fn proc_str(p: Process) -> String {
    match p {
        Process::Client(r) => format!("c{r}"),
        Process::Server(s) => format!("s{s}"),
    }
}

fn parse_proc(s: &str) -> Result<Process, ParseError> {
    let (kind, num) = s.split_at(1);
    let n: u32 = num
        .parse()
        .map_err(|_| ParseError::new(format!("bad process {s}")))?;
    match kind {
        "c" => Ok(Process::Client(n)),
        "s" => Ok(Process::Server(n)),
        _ => Err(ParseError::new(format!("bad process {s}"))),
    }
}

fn fs_op_fields(op: &FsOp) -> Vec<String> {
    match op {
        FsOp::Creat { path } => vec!["creat".into(), enc(path)],
        FsOp::Mkdir { path } => vec!["mkdir".into(), enc(path)],
        FsOp::Pwrite { path, offset, data } => {
            vec!["pwrite".into(), enc(path), offset.to_string(), hex(data)]
        }
        FsOp::Append { path, data } => vec!["append".into(), enc(path), hex(data)],
        FsOp::Truncate { path, size } => vec!["truncate".into(), enc(path), size.to_string()],
        FsOp::Rename { src, dst } => vec!["rename".into(), enc(src), enc(dst)],
        FsOp::Link { src, dst } => vec!["link".into(), enc(src), enc(dst)],
        FsOp::Unlink { path } => vec!["unlink".into(), enc(path)],
        FsOp::Rmdir { path } => vec!["rmdir".into(), enc(path)],
        FsOp::SetXattr { path, key, value } => {
            vec!["setxattr".into(), enc(path), enc(key), hex(value)]
        }
        FsOp::RemoveXattr { path, key } => vec!["removexattr".into(), enc(path), enc(key)],
        FsOp::Fsync { path } => vec!["fsync".into(), enc(path)],
        FsOp::Fdatasync { path } => vec!["fdatasync".into(), enc(path)],
        FsOp::SyncFs => vec!["syncfs".into()],
    }
}

fn parse_fs_op(fields: &[&str]) -> Result<FsOp, ParseError> {
    let need = |n: usize| -> Result<(), ParseError> {
        if fields.len() < n + 1 {
            Err(ParseError::new("missing fs-op fields"))
        } else {
            Ok(())
        }
    };
    Ok(match fields[0] {
        "creat" => {
            need(1)?;
            FsOp::Creat {
                path: dec(fields[1])?,
            }
        }
        "mkdir" => {
            need(1)?;
            FsOp::Mkdir {
                path: dec(fields[1])?,
            }
        }
        "pwrite" => {
            need(3)?;
            FsOp::Pwrite {
                path: dec(fields[1])?,
                offset: fields[2]
                    .parse()
                    .map_err(|_| ParseError::new("bad offset"))?,
                data: unhex(fields[3])?,
            }
        }
        "append" => {
            need(2)?;
            FsOp::Append {
                path: dec(fields[1])?,
                data: unhex(fields[2])?,
            }
        }
        "truncate" => {
            need(2)?;
            FsOp::Truncate {
                path: dec(fields[1])?,
                size: fields[2].parse().map_err(|_| ParseError::new("bad size"))?,
            }
        }
        "rename" => {
            need(2)?;
            FsOp::Rename {
                src: dec(fields[1])?,
                dst: dec(fields[2])?,
            }
        }
        "link" => {
            need(2)?;
            FsOp::Link {
                src: dec(fields[1])?,
                dst: dec(fields[2])?,
            }
        }
        "unlink" => {
            need(1)?;
            FsOp::Unlink {
                path: dec(fields[1])?,
            }
        }
        "rmdir" => {
            need(1)?;
            FsOp::Rmdir {
                path: dec(fields[1])?,
            }
        }
        "setxattr" => {
            need(3)?;
            FsOp::SetXattr {
                path: dec(fields[1])?,
                key: dec(fields[2])?,
                value: unhex(fields[3])?,
            }
        }
        "removexattr" => {
            need(2)?;
            FsOp::RemoveXattr {
                path: dec(fields[1])?,
                key: dec(fields[2])?,
            }
        }
        "fsync" => {
            need(1)?;
            FsOp::Fsync {
                path: dec(fields[1])?,
            }
        }
        "fdatasync" => {
            need(1)?;
            FsOp::Fdatasync {
                path: dec(fields[1])?,
            }
        }
        "syncfs" => FsOp::SyncFs,
        other => return Err(ParseError::new(format!("unknown fs op {other}"))),
    })
}

fn tag_fields(tag: &StructTag) -> (String, String) {
    match tag {
        StructTag::LogFile => ("log".into(), "-".into()),
        StructTag::Inode(n) => ("inode".into(), enc(n)),
        StructTag::DirEntry(n) => ("dentry".into(), enc(n)),
        StructTag::AllocMap => ("alloc".into(), "-".into()),
        StructTag::FileContent(n) => ("content".into(), enc(n)),
        StructTag::Superblock => ("super".into(), "-".into()),
        StructTag::Other(n) => ("other".into(), enc(n)),
    }
}

fn parse_tag(kind: &str, name: &str) -> Result<StructTag, ParseError> {
    Ok(match kind {
        "log" => StructTag::LogFile,
        "inode" => StructTag::Inode(dec(name)?),
        "dentry" => StructTag::DirEntry(dec(name)?),
        "alloc" => StructTag::AllocMap,
        "content" => StructTag::FileContent(dec(name)?),
        "super" => StructTag::Superblock,
        "other" => StructTag::Other(dec(name)?),
        other => return Err(ParseError::new(format!("unknown tag {other}"))),
    })
}

fn payload_fields(p: &Payload) -> Vec<String> {
    match p {
        Payload::Call { name, args } => {
            let mut f = vec!["call".to_string(), enc(name), args.len().to_string()];
            f.extend(args.iter().map(|a| enc(a)));
            f
        }
        Payload::Fs { server, op } => {
            let mut f = vec!["fs".to_string(), server.to_string()];
            f.extend(fs_op_fields(op));
            f
        }
        Payload::Block { server, op } => match op {
            BlockOp::Write {
                lba,
                payload,
                tag,
                atomic_group,
            } => {
                let (k, n) = tag_fields(tag);
                vec![
                    "blockw".to_string(),
                    server.to_string(),
                    lba.to_string(),
                    k,
                    n,
                    atomic_group.map_or("-".into(), |g| g.to_string()),
                    hex(payload),
                ]
            }
            BlockOp::SyncCache => vec!["blocksync".to_string(), server.to_string()],
        },
        Payload::Send { to, msg } => vec!["send".to_string(), proc_str(*to), enc(msg)],
        Payload::Recv { from, msg } => vec!["recv".to_string(), proc_str(*from), enc(msg)],
        Payload::Sync { name } => vec!["sync".to_string(), enc(name)],
    }
}

fn parse_payload(fields: &[&str]) -> Result<Payload, ParseError> {
    let need = |n: usize| -> Result<(), ParseError> {
        if fields.len() < n + 1 {
            Err(ParseError::new("missing payload fields"))
        } else {
            Ok(())
        }
    };
    Ok(match fields[0] {
        "call" => {
            need(2)?;
            let name = dec(fields[1])?;
            let argc: usize = fields[2]
                .parse()
                .map_err(|_| ParseError::new("bad arg count"))?;
            need(2 + argc)?;
            let args = fields[3..3 + argc]
                .iter()
                .map(|a| dec(a))
                .collect::<Result<_, _>>()?;
            Payload::Call { name, args }
        }
        "fs" => {
            need(2)?;
            Payload::Fs {
                server: fields[1]
                    .parse()
                    .map_err(|_| ParseError::new("bad server"))?,
                op: parse_fs_op(&fields[2..])?,
            }
        }
        "blockw" => {
            need(6)?;
            Payload::Block {
                server: fields[1]
                    .parse()
                    .map_err(|_| ParseError::new("bad server"))?,
                op: BlockOp::Write {
                    lba: fields[2].parse().map_err(|_| ParseError::new("bad lba"))?,
                    tag: parse_tag(fields[3], fields[4])?,
                    atomic_group: if fields[5] == "-" {
                        None
                    } else {
                        Some(
                            fields[5]
                                .parse()
                                .map_err(|_| ParseError::new("bad group"))?,
                        )
                    },
                    payload: unhex(fields[6])?,
                },
            }
        }
        "blocksync" => {
            need(1)?;
            Payload::Block {
                server: fields[1]
                    .parse()
                    .map_err(|_| ParseError::new("bad server"))?,
                op: BlockOp::SyncCache,
            }
        }
        "send" => {
            need(2)?;
            Payload::Send {
                to: parse_proc(fields[1])?,
                msg: dec(fields[2])?,
            }
        }
        "recv" => {
            need(2)?;
            Payload::Recv {
                from: parse_proc(fields[1])?,
                msg: dec(fields[2])?,
            }
        }
        "sync" => {
            need(1)?;
            Payload::Sync {
                name: dec(fields[1])?,
            }
        }
        other => return Err(ParseError::new(format!("unknown payload {other}"))),
    })
}

/// Serialize a recorder into the combined trace-file format.
pub fn save(rec: &Recorder) -> String {
    let mut out = String::new();
    for e in rec.events() {
        let _ = write!(
            out,
            "E {} {} {} {} {}",
            e.id,
            layer_str(e.layer),
            proc_str(e.proc),
            e.parent.map_or("-".into(), |p| p.to_string()),
            e.object.as_deref().map_or("-".into(), enc),
        );
        for f in payload_fields(&e.payload) {
            let _ = write!(out, " {f}");
        }
        out.push('\n');
    }
    for &(from, to) in rec.extra_edges() {
        let _ = writeln!(out, "X {from} {to}");
    }
    out
}

/// Parse a combined trace file back into a [`Recorder`]. Events may
/// appear in any order; ids must form a dense `0..n` range.
pub fn load(text: &str) -> Result<Recorder, ParseError> {
    let mut events: Vec<Option<Event>> = Vec::new();
    let mut edges: Vec<(EventId, EventId)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(' ').collect();
        match fields[0] {
            "E" => {
                if fields.len() < 6 {
                    return Err(ParseError::new("short event line").at(lineno + 1));
                }
                let id: EventId = fields[1]
                    .parse()
                    .map_err(|_| ParseError::new("bad id").at(lineno + 1))?;
                let layer = parse_layer(fields[2]).map_err(|e| e.at(lineno + 1))?;
                let proc = parse_proc(fields[3]).map_err(|e| e.at(lineno + 1))?;
                let parent = if fields[4] == "-" {
                    None
                } else {
                    Some(
                        fields[4]
                            .parse()
                            .map_err(|_| ParseError::new("bad parent").at(lineno + 1))?,
                    )
                };
                let object = if fields[5] == "-" {
                    None
                } else {
                    Some(dec(fields[5]).map_err(|e| e.at(lineno + 1))?)
                };
                let payload = parse_payload(&fields[6..]).map_err(|e| e.at(lineno + 1))?;
                if events.len() <= id {
                    events.resize(id + 1, None);
                }
                events[id] = Some(Event {
                    id,
                    layer,
                    proc,
                    payload,
                    parent,
                    object,
                });
            }
            "X" => {
                if fields.len() != 3 {
                    return Err(ParseError::new("short edge line").at(lineno + 1));
                }
                let from = fields[1]
                    .parse()
                    .map_err(|_| ParseError::new("bad edge").at(lineno + 1))?;
                let to = fields[2]
                    .parse()
                    .map_err(|_| ParseError::new("bad edge").at(lineno + 1))?;
                edges.push((from, to));
            }
            other => return Err(ParseError::new(format!("unknown record {other}")).at(lineno + 1)),
        }
    }
    let mut rec = Recorder::new();
    for (i, ev) in events.into_iter().enumerate() {
        let ev = ev.ok_or_else(|| ParseError::new(format!("missing event id {i}")))?;
        let id = rec.record(ev.layer, ev.proc, ev.payload, ev.parent);
        debug_assert_eq!(id, i);
        if let Some(obj) = ev.object {
            rec.set_object(id, obj);
        }
    }
    for (from, to) in edges {
        if from >= rec.len() || to >= rec.len() {
            return Err(ParseError::new("edge references missing event"));
        }
        rec.add_edge(from, to);
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recorder {
        let mut rec = Recorder::new();
        let c = rec.record(
            Layer::PfsClient,
            Process::Client(0),
            Payload::Call {
                name: "creat".into(),
                args: vec!["/a file".into(), "len=3".into()],
            },
            None,
        );
        let s = rec.record(
            Layer::PfsClient,
            Process::Client(0),
            Payload::Send {
                to: Process::Server(1),
                msg: "CREAT /a file".into(),
            },
            Some(c),
        );
        let r = rec.record(
            Layer::PfsServer,
            Process::Server(1),
            Payload::Recv {
                from: Process::Client(0),
                msg: "CREAT /a file".into(),
            },
            Some(s),
        );
        rec.record_labeled(
            Layer::LocalFs,
            Process::Server(1),
            Payload::Fs {
                server: 1,
                op: FsOp::Pwrite {
                    path: "/chunks/f0.0".into(),
                    offset: 8,
                    data: vec![0, 255, 17],
                },
            },
            Some(r),
            "data chunks of g1/d1",
        );
        rec.record(
            Layer::Block,
            Process::Server(2),
            Payload::Block {
                server: 2,
                op: BlockOp::write_in_group(42, StructTag::DirEntry("root dir".into()), vec![9], 3),
            },
            None,
        );
        rec.record(
            Layer::MpiIo,
            Process::Client(1),
            Payload::Sync {
                name: "MPI_Barrier".into(),
            },
            None,
        );
        rec.add_edge(0, 5);
        rec
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let rec = sample();
        let text = save(&rec);
        let back = load(&text).expect("parses");
        assert_eq!(rec.len(), back.len());
        for (a, b) in rec.events().iter().zip(back.events()) {
            assert_eq!(a, b);
        }
        assert_eq!(rec.extra_edges(), back.extra_edges());
        // Lines load in any order.
        let reversed: Vec<&str> = text.lines().rev().collect();
        let back = load(&reversed.join("\n")).expect("parses");
        assert_eq!(rec.events(), back.events());
    }

    #[test]
    fn strings_with_spaces_and_percent_roundtrip() {
        assert_eq!(dec(&enc("a b%c\nd")).unwrap(), "a b%c\nd");
        assert_eq!(dec(&enc("")).unwrap(), "");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = load("E bogus").unwrap_err();
        assert_eq!(err.line, 1);
        let err = load("E 0 localfs s0 - - fs 0 creat /x\nQ what").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            load("E 1 localfs s0 - - fs 0 creat /x").is_err(),
            "gap in ids"
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let rec = sample();
        let text = format!("# trace file\n\n{}", save(&rec));
        assert_eq!(load(&text).unwrap().len(), rec.len());
    }
}
