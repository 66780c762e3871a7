//! What one run prints: `# `-prefixed disclosure and detail lines, then
//! the result object as the last line of standard output.

use crate::stats::Tally;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    pub tally: Tally,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Prints the detail lines and the result object. A run is correct only
    /// when no op failed and every metric is a finite number.
    pub fn print(&self) {
        let t = &self.tally;
        println!(
            "# failed_frac={} (attempted={} wrong_output={} shed={} refused={} incomplete={} errors={})",
            t.failed_frac(),
            t.attempted,
            t.wrong_output,
            t.shed,
            t.refused,
            t.incomplete,
            t.errors
        );
        if let Some(first) = &t.first_failure {
            println!("# first failure: {first}");
        }
        for l in &self.lines {
            println!("# {l}");
        }
        for m in &self.metrics {
            println!("# {} = {} {}", m.name, m.value, m.unit);
        }
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(value),
                    quote(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            finite && t.failed() == 0 && t.attempted > 0,
            t.attempted.max(1),
            t.failed(),
            metrics.join(", ")
        );
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Full-precision decimal; integral values keep a `.0` so every value
/// reads as a measurement, never as a bare integer literal.
fn number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}
