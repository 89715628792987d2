//! The JSONL trace-writer sink and its (validating) line parser.
//!
//! One JSON object per record, timestamped with monotonic nanoseconds
//! since the sink was created:
//!
//! ```json
//! {"t_ns":12345,"kind":"span","name":"orchestrate.job","detail":"file=0 shard=1","value":873211}
//! ```
//!
//! `kind` is one of `event`/`span`/`counter`/`gauge`/`histogram`;
//! `value` is the span's nanoseconds, the counter's delta, the
//! gauge's value, or the histogram's observation (absent for events).
//! The writer buffers behind a mutex and swallows I/O errors after
//! the first (telemetry must never take a campaign down); call
//! [`JsonlSink::flush`] (or drop the sink) to push the tail out.
//!
//! [`parse_line`] is the inverse used by the CI smoke check: it
//! accepts exactly the subset of JSON this writer emits.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::Sink;

struct Out {
    w: BufWriter<File>,
    failed: bool,
}

/// A buffered JSONL trace writer; see the [module docs](self).
pub struct JsonlSink {
    start: Instant,
    out: Mutex<Out>,
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let w = BufWriter::new(File::create(path)?);
        Ok(JsonlSink {
            start: Instant::now(),
            out: Mutex::new(Out { w, failed: false }),
        })
    }

    fn write_record(&self, kind: &str, name: &str, detail: Option<&str>, value: Option<i128>) {
        let t_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut line = String::with_capacity(96);
        line.push_str("{\"t_ns\":");
        line.push_str(&t_ns.to_string());
        line.push_str(",\"kind\":\"");
        line.push_str(kind);
        line.push_str("\",\"name\":\"");
        escape_into(&mut line, name);
        line.push('"');
        if let Some(d) = detail {
            line.push_str(",\"detail\":\"");
            escape_into(&mut line, d);
            line.push('"');
        }
        if let Some(v) = value {
            line.push_str(",\"value\":");
            line.push_str(&v.to_string());
        }
        line.push_str("}\n");
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if !out.failed && out.w.write_all(line.as_bytes()).is_err() {
            out.failed = true;
        }
    }

    /// Flushes buffered records to the file.
    pub fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if !out.failed && out.w.flush().is_err() {
            out.failed = true;
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Sink for JsonlSink {
    fn event(&self, name: &str, detail: &str) {
        self.write_record("event", name, Some(detail), None);
    }

    fn span(&self, name: &str, detail: &str, nanos: u64) {
        let detail = (!detail.is_empty()).then_some(detail);
        self.write_record("span", name, detail, Some(i128::from(nanos)));
    }

    fn counter(&self, name: &str, delta: u64) {
        self.write_record("counter", name, None, Some(i128::from(delta)));
    }

    fn gauge(&self, name: &str, value: i64) {
        self.write_record("gauge", name, None, Some(i128::from(value)));
    }

    fn histogram(&self, name: &str, value: u64) {
        self.write_record("histogram", name, None, Some(i128::from(value)));
    }
}

/// One parsed trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic nanoseconds since the sink was created.
    pub t_ns: u64,
    /// `event`/`span`/`counter`/`gauge`/`histogram`.
    pub kind: String,
    /// Metric name.
    pub name: String,
    /// Span/event detail, when present.
    pub detail: Option<String>,
    /// Numeric payload, when present.
    pub value: Option<i128>,
}

struct Cursor<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek().ok_or("dangling escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign.
                            let code = hex.iter().try_fold(0u32, |code, &b| {
                                let digit = (b as char).to_digit(16).ok_or("bad \\u escape")?;
                                Ok::<_, &str>(code << 4 | digit)
                            })?;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                            self.i += 4;
                        }
                        c => return Err(format!("unknown escape \\{}", c as char)),
                    }
                    self.i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 passes through untouched.
                    let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|_| "bad utf-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<i128, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Parses one line written by [`JsonlSink`], validating the record
/// shape (known `kind`, mandatory `t_ns`/`name`, no unknown or repeated
/// keys).
pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let mut c = Cursor {
        s: line.trim_end().as_bytes(),
        i: 0,
    };
    c.eat(b'{')?;
    let mut rec = TraceRecord {
        t_ns: 0,
        kind: String::new(),
        name: String::new(),
        detail: None,
        value: None,
    };
    // One bit per key read: `t_ns`, `kind`, `name`, `detail`, `value`.
    let mut seen = 0u8;
    loop {
        let key = c.string()?;
        c.eat(b':')?;
        let bit = match key.as_str() {
            "t_ns" => {
                rec.t_ns = u64::try_from(c.number()?).map_err(|_| "negative t_ns")?;
                1
            }
            "kind" => {
                rec.kind = c.string()?;
                2
            }
            "name" => {
                rec.name = c.string()?;
                4
            }
            "detail" => {
                rec.detail = Some(c.string()?);
                8
            }
            "value" => {
                rec.value = Some(c.number()?);
                16
            }
            other => return Err(format!("unknown key {other:?}")),
        };
        if seen & bit != 0 {
            return Err(format!("repeated key {key:?}"));
        }
        seen |= bit;
        match c.peek() {
            Some(b',') => c.i += 1,
            Some(b'}') => break,
            _ => return Err(format!("expected ',' or '}}' at byte {}", c.i)),
        }
    }
    c.eat(b'}')?;
    if c.i != c.s.len() {
        return Err("trailing bytes after record".into());
    }
    if seen & 7 != 7 {
        return Err("missing t_ns/kind/name".into());
    }
    if !matches!(
        rec.kind.as_str(),
        "event" | "span" | "counter" | "gauge" | "histogram"
    ) {
        return Err(format!("unknown kind {:?}", rec.kind));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Lines [`JsonlSink`] writes: every kind, escapes, multi-byte UTF-8.
    fn written_lines() -> &'static [String] {
        static LINES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        LINES.get_or_init(|| {
            let dir = std::env::temp_dir().join(format!(
                "spe-telemetry-jsonl-mutation-{}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("trace.jsonl");
            {
                let sink = JsonlSink::create(&path).unwrap();
                sink.event("orchestrate.killed", "stop_after=5");
                sink.span("orchestrate.job", "file=0 shard=1", 873_211);
                sink.span("no.detail", "", 1);
                sink.counter("campaign.variants_tested", u64::MAX);
                sink.gauge("orchestrate.queue_depth", i64::MIN);
                sink.histogram("oracle_ns.clean", 42);
                sink.event("weird \"name\"\n\\", "tab\there \u{1} é → 𝄞");
            }
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            text.lines().map(str::to_owned).collect()
        })
    }

    /// Parses mutated bytes as a reader of untrusted traces would: any
    /// invalid UTF-8 replaced, then one line. A panic fails the test; a
    /// record or an error are both answers.
    fn parse_bytes(bytes: &[u8]) -> Result<TraceRecord, String> {
        parse_line(&String::from_utf8_lossy(bytes))
    }

    #[test]
    fn every_truncation_of_a_written_line_parses_or_errs() {
        for line in written_lines() {
            assert!(parse_line(line).is_ok(), "{line}");
            for cut in 0..line.len() {
                assert!(
                    parse_bytes(&line.as_bytes()[..cut]).is_err(),
                    "{line} cut at {cut}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn a_written_line_with_one_flipped_bit_parses_or_errs(
            pick in 0usize..64,
            at in 0usize..4096,
            bit in 0u8..8,
        ) {
            let lines = written_lines();
            let mut bytes = lines[pick % lines.len()].clone().into_bytes();
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
            let _ = parse_bytes(&bytes);
        }

        #[test]
        fn a_written_line_with_inserted_bytes_parses_or_errs(
            pick in 0usize..64,
            at in 0usize..4096,
            inserted in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 1..17),
        ) {
            let lines = written_lines();
            let mut bytes = lines[pick % lines.len()].clone().into_bytes();
            let at = at % (bytes.len() + 1);
            bytes.splice(at..at, inserted);
            let _ = parse_bytes(&bytes);
        }
    }

    #[test]
    fn writes_and_parses_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spe-telemetry-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.event("orchestrate.killed", "stop_after=5");
            sink.span("orchestrate.job", "file=0 shard=1", 873_211);
            sink.span("no.detail", "", 1);
            sink.counter("campaign.variants_tested", 3);
            sink.gauge("orchestrate.queue_depth", -1);
            sink.histogram("oracle_ns.clean", 42);
            sink.event("weird \"name\"\n", "tab\there");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let recs: Vec<TraceRecord> = text
            .lines()
            .map(|l| parse_line(l).unwrap_or_else(|e| panic!("{e}: {l}")))
            .collect();
        assert_eq!(recs.len(), 7);
        assert_eq!(recs[0].kind, "event");
        assert_eq!(recs[0].detail.as_deref(), Some("stop_after=5"));
        assert_eq!(recs[1].name, "orchestrate.job");
        assert_eq!(recs[1].value, Some(873_211));
        assert_eq!(recs[2].detail, None);
        assert_eq!(recs[4].value, Some(-1));
        assert_eq!(recs[6].name, "weird \"name\"\n");
        assert_eq!(recs[6].detail.as_deref(), Some("tab\there"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{}").is_err());
        assert!(parse_line("{\"t_ns\":1,\"kind\":\"span\"}").is_err());
        assert!(parse_line("{\"t_ns\":1,\"kind\":\"nope\",\"name\":\"x\"}").is_err());
        assert!(parse_line("{\"t_ns\":1,\"kind\":\"event\",\"name\":\"x\"} junk").is_err());
        assert!(parse_line("{\"t_ns\":1,\"kind\":\"event\",\"name\":\"x\",\"zzz\":2}").is_err());
        assert!(parse_line(r#"{"t_ns":1,"kind":"event","name":"\u+041"}"#).is_err());
        for (key, line) in [
            ("t_ns", r#"{"t_ns":1,"t_ns":3,"kind":"span","name":"x"}"#),
            (
                "kind",
                r#"{"t_ns":1,"kind":"span","kind":"event","name":"x"}"#,
            ),
            ("name", r#"{"t_ns":1,"kind":"event","name":"x","name":"y"}"#),
            (
                "detail",
                r#"{"t_ns":1,"kind":"event","name":"x","detail":"d","detail":"e"}"#,
            ),
            (
                "value",
                r#"{"t_ns":1,"kind":"span","name":"x","value":2,"value":3}"#,
            ),
        ] {
            assert_eq!(
                parse_line(line),
                Err(format!("repeated key {key:?}")),
                "{line}"
            );
        }
    }
}
