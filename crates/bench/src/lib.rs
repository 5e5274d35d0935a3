//! Shared helpers for the VideoPipe benchmark harness.
//!
//! Each bench target regenerates one table or figure of the paper (see
//! DESIGN.md §5 for the index) and prints paper-reported values next to the
//! reproduction's measurements so the comparison is immediate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::fmt::Write as _;

/// Prints a bench banner.
pub fn banner(title: &str, subtitle: &str) {
    println!();
    println!("==============================================================");
    println!("{title}");
    if !subtitle.is_empty() {
        println!("{subtitle}");
    }
    println!("==============================================================");
}

/// A simple fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (short rows are padded with blanks).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(widths.iter()) {
            let _ = write!(line, "{h:<w$}  ");
        }
        out.push_str(line.trim_end());
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(widths.iter()) {
                let _ = write!(line, "{cell:<w$}  ");
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats milliseconds with one decimal.
pub fn ms(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a ratio as `x.xx×`.
pub fn ratio(ours: f64, theirs: f64) -> String {
    if theirs.abs() < 1e-12 {
        "-".to_string()
    } else {
        format!("{:.2}x", ours / theirs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["a", "long header", "c"]);
        t.row(["1", "2", "3"]);
        t.row(["wide cell content", "x"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long header"));
        assert!(lines[2].starts_with('1'));
        // Padded short row.
        assert!(lines[3].contains("wide cell content"));
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(ms(12.34), "12.3");
        assert_eq!(ratio(2.0, 1.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "-");
    }
}
