//! Experiment result tables: machine-readable JSON plus an ASCII rendering
//! matching the paper's table/figure shapes.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde_json::{ToJson, Value};

/// One experiment's output: a titled table with typed cells.
#[derive(Debug, Clone)]
pub struct ExpResult {
    /// Experiment id (e.g. `"exp1"`).
    pub id: String,
    /// Human title referencing the paper artifact.
    pub title: String,
    /// Parameters used, as free-form JSON.
    pub params: Value,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Value>>,
    /// Free-form observations (shape checks etc.).
    pub notes: Vec<String>,
    /// Optional `ofd-obs` metrics snapshot (counters/gauges/histograms/
    /// spans as of save time), embedded in the saved JSON when the run was
    /// started with `--metrics-out` or `--trace`. The underlying handle is
    /// shared by the whole `exp` invocation, so totals are cumulative
    /// across the experiments run so far.
    pub metrics: Option<Value>,
}

impl ExpResult {
    /// Creates an empty result.
    pub fn new(id: &str, title: &str, params: Value, columns: &[&str]) -> ExpResult {
        ExpResult {
            id: id.to_owned(),
            title: title.to_owned(),
            params,
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            metrics: None,
        }
    }

    /// Embeds an `ofd-obs` snapshot in the report (no-op when disabled), so
    /// the report stays a single self-describing document.
    pub fn attach_metrics(&mut self, snapshot: &ofd_core::MetricsSnapshot) {
        if snapshot.enabled {
            self.metrics = Some(snapshot.to_json());
        }
    }

    /// Appends a row (panics if the arity mismatches the header).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Writes `<dir>/<id>.json`.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        // Atomic replace: a crash mid-run never leaves a truncated report
        // for the summarizer to trip over.
        ofd_core::atomic_write(&path, serde_json::to_string_pretty(self)?.as_bytes())?;
        Ok(path)
    }

    /// ASCII rendering.
    pub fn render(&self) -> String {
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.rows.len() + 1);
        cells.push(self.columns.clone());
        for row in &self.rows {
            cells.push(row.iter().map(render_cell).collect());
        }
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| cells.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
            .collect();
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        for (i, row) in cells.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}", w = *w))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
            if i == 0 {
                let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
                out.push_str(&sep.join("-+-"));
                out.push('\n');
            }
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

impl ToJson for ExpResult {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("id".to_owned(), Value::from(self.id.as_str())),
            ("title".to_owned(), Value::from(self.title.as_str())),
            ("params".to_owned(), self.params.clone()),
            (
                "columns".to_owned(),
                Value::Array(self.columns.iter().map(|c| Value::from(c.as_str())).collect()),
            ),
            (
                "rows".to_owned(),
                Value::Array(self.rows.iter().map(|r| Value::Array(r.clone())).collect()),
            ),
            (
                "notes".to_owned(),
                Value::Array(self.notes.iter().map(|n| Value::from(n.as_str())).collect()),
            ),
            (
                "metrics".to_owned(),
                self.metrics.clone().unwrap_or(Value::Null),
            ),
        ])
    }
}

fn render_cell(v: &Value) -> String {
    match v {
        Value::Null => "—".to_owned(),
        Value::Number(n) => {
            if let Some(f) = n.as_f64() {
                if n.is_f64() {
                    format!("{f:.3}")
                } else {
                    n.to_string()
                }
            } else {
                n.to_string()
            }
        }
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Convenience: times a closure, returning its output and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The process's peak resident set size (VmHWM) in MiB, from
/// `/proc/self/status`; `None` off Linux. The high-water mark only grows,
/// so per-phase attribution is approximate — the paper-shape signal it
/// supports is "FDep/FDMine exceed memory where lattice algorithms do not".
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn render_aligns_columns_and_marks_missing() {
        let mut r = ExpResult::new("expX", "demo", json!({"n": 5}), &["alg", "secs"]);
        r.push_row(vec![json!("TANE"), json!(1.25)]);
        r.push_row(vec![json!("FDep"), Value::Null]);
        r.note("FDep terminated");
        let text = r.render();
        assert!(text.contains("TANE"));
        assert!(text.contains("1.250"));
        assert!(text.contains("—"));
        assert!(text.contains("note: FDep terminated"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut r = ExpResult::new("e", "t", json!({}), &["a", "b"]);
        r.push_row(vec![json!(1)]);
    }

    #[test]
    fn saves_json() {
        let dir = std::env::temp_dir().join("ofd_bench_test_results");
        let mut r = ExpResult::new("exp_test", "t", json!({}), &["a"]);
        r.push_row(vec![json!(1)]);
        let path = r.save(&dir).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("exp_test"));
    }

    #[test]
    fn timed_measures() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_mib().expect("procfs available");
            assert!(rss > 0.0);
        }
    }
}
