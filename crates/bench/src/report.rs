//! Result tables: console rendering and CSV output.

use std::fmt::Write as _;
use std::path::Path;

/// One results table (a figure's data series).
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. `e4`.
    pub id: String,
    /// Human title, e.g. `Fig 6: shared-memory scaling`.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of rendered cells (aligned with `columns`).
    pub rows: Vec<Vec<String>>,
    /// Free-text notes (paper-reported values, substitutions).
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Render as an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (k, cell) in row.iter().enumerate() {
                widths[k] = widths[k].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(k, c)| format!("{c:>w$}", w = widths[k]))
            .collect();
        let _ = writeln!(out, "  {}", header.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(k, c)| format!("{c:>w$}", w = widths[k]))
                .collect();
            let _ = writeln!(out, "  {}", cells.join("  "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// CSV rendering (notes become `#` comment lines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} - {}", self.id, self.title);
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for record in std::iter::once(&self.columns).chain(&self.rows) {
            let _ = writeln!(out, "{}", csv_record(record));
        }
        out
    }

    /// Write `results/<id>.csv` under `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())
    }
}

/// `cells` as one CSV record: a cell holding a comma, a quote or a line
/// break is quoted, and each quote in it doubled (RFC 4180).
fn csv_record(cells: &[String]) -> String {
    let field = |c: &String| {
        if c.contains([',', '"', '\n']) {
            format!("\"{}\"", c.replace('"', "\"\""))
        } else {
            c.clone()
        }
    };
    cells.iter().map(field).collect::<Vec<_>>().join(",")
}

/// Format a float to a fixed number of decimals.
pub fn fmt_f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Format the spread `[q1, q3]` of quartiles `q`.
pub fn fmt_spread(q: [f64; 3], decimals: usize) -> String {
    let [lo, _, hi] = q.map(|v| fmt_f(v, decimals));
    format!("[{lo}, {hi}]")
}

/// Format a duration as microseconds with one decimal.
pub fn fmt_dur_us(d: std::time::Duration) -> String {
    fmt_f(d.as_secs_f64() * 1e6, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("e0", "demo", &["threads", "speedup"]);
        t.row(vec!["1".into(), "1.00".into()]);
        t.row(vec!["24".into(), "22.35".into()]);
        t.note("paper: 22.35 at 24 cores");
        let s = t.render();
        assert!(s.contains("e0"));
        assert!(s.contains("22.35"));
        assert!(s.contains("note: paper"));
    }

    #[test]
    fn csv_has_header_and_comments() {
        let mut t = Table::new("e1", "x", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("n");
        let csv = t.to_csv();
        assert!(csv.starts_with("# e1"));
        assert!(csv.contains("a,b\n1,2\n"));
        assert!(csv.contains("# n"));
    }

    #[test]
    fn csv_quotes_cells_holding_commas_and_quotes() {
        let mut t = Table::new("e1", "x", &["name", "[q1, q3]", "plain"]);
        t.row(vec![
            "runtime 1x1, run path".into(),
            "say \"hi\"".into(),
            "7".into(),
        ]);
        let csv = t.to_csv();
        assert!(csv.contains("name,\"[q1, q3]\",plain\n"), "{csv}");
        assert!(
            csv.contains("\"runtime 1x1, run path\",\"say \"\"hi\"\"\",7\n"),
            "{csv}"
        );
        assert_eq!(fmt_spread([1.0, 2.0, 3.26], 1), "[1.0, 3.3]");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("e", "x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn save_writes_file() {
        let dir = std::env::temp_dir().join("dpgen_report_test");
        let mut t = Table::new("e_test", "x", &["a"]);
        t.row(vec!["7".into()]);
        t.save(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("e_test.csv")).unwrap();
        assert!(content.contains("7"));
    }
}
