//! Structured JSON-lines event sink: slow-request traces, connection
//! lifecycle, store compactions.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered so that `level <= sink_level` means "emit".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is emitted.
    Off,
    /// Failures only (protocol errors, dropped connections).
    Error,
    /// Operational events: connection open/close/timeout, slow requests.
    Info,
    /// High-volume detail: store compactions, per-batch internals.
    Debug,
}

impl Level {
    /// Parse a CLI-style level name (`off|error|info|debug`).
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "off" => Some(Level::Off),
            "error" => Some(Level::Error),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// A typed event field value. Borrowed strings keep event emission
/// allocation-light; everything else is scalar.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (written with `{}` — shortest round-trip form).
    F64(f64),
    /// String (JSON-escaped on write).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

/// A thread-safe JSON-lines event sink.
///
/// Each event becomes one flat JSON object per line:
///
/// ```text
/// {"ts_us":1754650000000000,"level":"info","ev":"slow_request","conn":3,...}
/// ```
///
/// A disabled sink ([`TraceSink::disabled`]) costs one enum compare per
/// [`enabled`](TraceSink::enabled) check and never takes a lock, so it is
/// safe to consult from hot paths. Enabled sinks serialize writers
/// behind a mutex — they are meant for slow/rare events, not per-request
/// logging at 1.5M req/s.
pub struct TraceSink {
    level: Level,
    out: Option<Mutex<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("level", &self.level)
            .field("enabled", &self.out.is_some())
            .finish()
    }
}

/// A `Write` handle over a shared in-memory buffer, for tests.
#[derive(Debug, Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl TraceSink {
    /// A sink that drops everything.
    pub fn disabled() -> TraceSink {
        TraceSink {
            level: Level::Off,
            out: None,
        }
    }

    /// Emit events at or below `level` to an arbitrary writer.
    pub fn to_writer(level: Level, out: Box<dyn Write + Send>) -> TraceSink {
        if level == Level::Off {
            return TraceSink::disabled();
        }
        TraceSink {
            level,
            out: Some(Mutex::new(out)),
        }
    }

    /// Emit events at or below `level` to standard error.
    pub fn to_stderr(level: Level) -> TraceSink {
        TraceSink::to_writer(level, Box::new(io::stderr()))
    }

    /// Emit events at or below `level` to a file (created/truncated).
    pub fn to_file(level: Level, path: &str) -> io::Result<TraceSink> {
        let file = std::fs::File::create(path)?;
        Ok(TraceSink::to_writer(
            level,
            Box::new(io::BufWriter::new(file)),
        ))
    }

    /// A sink writing into a shared in-memory buffer, for tests: the
    /// returned handle observes every emitted line.
    pub fn to_buffer(level: Level) -> (TraceSink, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = TraceSink::to_writer(level, Box::new(SharedBuf(buf.clone())));
        (sink, buf)
    }

    /// Would an event at `level` be emitted? Use this to skip field
    /// construction entirely on hot paths.
    pub fn enabled(&self, level: Level) -> bool {
        self.out.is_some() && level <= self.level
    }

    /// Emit one event line with the given name and fields.
    ///
    /// Adds `ts_us` (wall-clock microseconds since the Unix epoch),
    /// `level`, and `ev` before the caller's fields. Does nothing when
    /// the sink is disabled or the level is filtered out; write errors
    /// are swallowed (observability must never take the server down).
    pub fn event(&self, level: Level, ev: &str, fields: &[(&str, Field<'_>)]) {
        if !self.enabled(level) {
            return;
        }
        let ts_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let mut line = String::with_capacity(96);
        line.push_str("{\"ts_us\":");
        line.push_str(&ts_us.to_string());
        line.push_str(",\"level\":\"");
        line.push_str(level.name());
        line.push_str("\",\"ev\":\"");
        escape_into(&mut line, ev);
        line.push('"');
        for (key, value) in fields {
            line.push_str(",\"");
            escape_into(&mut line, key);
            line.push_str("\":");
            match value {
                Field::U64(n) => line.push_str(&n.to_string()),
                Field::I64(n) => line.push_str(&n.to_string()),
                Field::F64(x) if x.is_finite() => line.push_str(&x.to_string()),
                Field::F64(_) => line.push_str("null"),
                Field::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
                Field::Str(s) => {
                    line.push('"');
                    escape_into(&mut line, s);
                    line.push('"');
                }
            }
        }
        line.push_str("}\n");
        if let Ok(mut out) = self.out.as_ref().expect("checked enabled").lock() {
            let _ = out.write_all(line.as_bytes());
            let _ = out.flush();
        }
    }
}

/// JSON string escaping (quotes, backslashes, control characters).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
        String::from_utf8(buf.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(|l| l.to_string())
            .collect()
    }

    #[test]
    fn events_are_one_flat_json_object_per_line() {
        let (sink, buf) = TraceSink::to_buffer(Level::Info);
        sink.event(
            Level::Info,
            "slow_request",
            &[
                ("conn", Field::U64(3)),
                ("op", Field::Str("equiv")),
                ("total_us", Field::F64(1234.5)),
                ("warm", Field::Bool(false)),
                ("delta", Field::I64(-2)),
            ],
        );
        let lines = lines(&buf);
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with("{\"ts_us\":"), "line: {line}");
        assert!(line.contains("\"level\":\"info\""));
        assert!(line.contains("\"ev\":\"slow_request\""));
        assert!(line.contains("\"conn\":3"));
        assert!(line.contains("\"op\":\"equiv\""));
        assert!(line.contains("\"total_us\":1234.5"));
        assert!(line.contains("\"warm\":false"));
        assert!(line.contains("\"delta\":-2"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn level_filtering_and_disabled_sinks_drop_events() {
        let (sink, buf) = TraceSink::to_buffer(Level::Error);
        assert!(sink.enabled(Level::Error));
        assert!(!sink.enabled(Level::Info));
        sink.event(Level::Info, "ignored", &[]);
        sink.event(Level::Debug, "ignored", &[]);
        sink.event(Level::Error, "kept", &[]);
        assert_eq!(lines(&buf).len(), 1);

        let off = TraceSink::disabled();
        assert!(!off.enabled(Level::Error));
        off.event(Level::Error, "dropped", &[]);
    }

    #[test]
    fn strings_are_escaped() {
        let (sink, buf) = TraceSink::to_buffer(Level::Debug);
        sink.event(
            Level::Debug,
            "e",
            &[("msg", Field::Str("a\"b\\c\nd\u{1}e"))],
        );
        assert!(lines(&buf)[0].contains(r#""msg":"a\"b\\c\nd\u0001e""#));
    }

    #[test]
    fn parse_levels() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("error"), Some(Level::Error));
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("verbose"), None);
    }
}
