//! Plain-text table rendering for the experiment harness.
//!
//! Every cell is *exact* — the same under a fixed seed on any machine —
//! unless the experiment marks it *measured* ([`Table::measured`]) where
//! it builds the row: a wall-clock rate, or a count that depends on how
//! threads were scheduled.
//!
//! A table also carries the experiment's *claims* ([`Table::claim`]):
//! each is a sentence and a `bool` the experiment computes from its own
//! typed values where it builds the rows, never by parsing a cell back.
//! A claim states what the paper (or the extension) asserts about those
//! values; a measured cell's floor is a claim too. The table prints each
//! claim under its rows as `PASS` or `FAIL`.

use core::fmt;

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// `(row, column)` of every measured cell.
    pub measured: Vec<(usize, usize)>,
    /// Every claim about the table's values: its text and whether it
    /// holds.
    pub claims: Vec<(String, bool)>,
}

impl Table {
    /// Creates a table with a title and headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            measured: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a row of string slices.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Marks columns `cols` of the last row as measured.
    pub fn measured(&mut self, cols: &[usize]) -> &mut Self {
        let row = self.rows.len().saturating_sub(1);
        self.measured.extend(cols.iter().map(|&c| (row, c)));
        self
    }

    /// Whether the cell at `(row, col)` is measured.
    pub fn is_measured(&self, row: usize, col: usize) -> bool {
        self.measured.contains(&(row, col))
    }

    /// Records the claim `text`, which holds when `holds` is true.
    pub fn claim(&mut self, text: &str, holds: bool) -> &mut Self {
        self.claims.push((text.to_string(), holds));
        self
    }
}

/// How a claim renders: `PASS` when it holds, `FAIL` when it does not.
pub fn verdict(holds: bool) -> &'static str {
    if holds {
        "PASS"
    } else {
        "FAIL"
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:<width$}  ", width = w));
            }
            writeln!(f, "{}", line.trim_end())
        };
        if !self.headers.is_empty() {
            write_row(f, &self.headers)?;
            let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            write_row(f, &sep)?;
        }
        for row in &self.rows {
            write_row(f, row)?;
        }
        for (text, holds) in &self.claims {
            writeln!(f, "[{}] {text}", verdict(*holds))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["col", "value"]);
        t.row_str(&["a", "1"]).row_str(&["long-name", "2"]);
        let s = t.to_string();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Header and separator aligned to the widest cell.
        assert!(lines[1].starts_with("col"));
        assert!(lines[2].starts_with("---"));
    }

    #[test]
    fn measured_marks_the_last_row_only() {
        let mut t = Table::new("M", &["a", "rate"]);
        t.row_str(&["x", "1"]).row_str(&["y", "2"]).measured(&[1]);
        assert!(t.is_measured(1, 1));
        assert!(!t.is_measured(0, 1) && !t.is_measured(1, 0));
    }

    #[test]
    fn claims_print_under_the_rows() {
        let mut t = Table::new("C", &["a"]);
        t.row_str(&["1"])
            .claim("one holds", true)
            .claim("two fails", false);
        let lines: Vec<String> = t.to_string().lines().map(String::from).collect();
        assert_eq!(lines[4..], ["[PASS] one holds", "[FAIL] two fails"]);
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = Table::new("R", &["a"]);
        t.row_str(&["1", "extra"]);
        let s = t.to_string();
        assert!(s.contains("extra"));
    }
}
