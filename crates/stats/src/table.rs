//! Markdown / CSV table builder for experiment reports.
//!
//! The `repro` binary prints every experiment as a markdown table, and the
//! `rcb` summaries (`run`, `bench`, `profile`) use the same builder;
//! [`Table::csv`] emits the same data for external plotting. Hand-rolled
//! because the offline dependency set has no `serde_json`-style writer —
//! and a table builder is all we need.

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: append a row of displayable items.
    pub fn row_display<T: std::fmt::Display>(&mut self, cells: &[T]) -> &mut Self {
        let strings: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&strings)
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render as a GitHub-flavoured markdown table with aligned columns.
    pub fn markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&rule, &widths));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV (RFC-4180-ish: quotes around cells containing commas,
    /// quotes, or newlines).
    pub fn csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with a sensible number of digits for a report cell.
pub fn fmt_g(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_layout() {
        let mut t = Table::new(&["x", "value"]);
        t.row_display(&["1", "10"]);
        t.row_display(&["200", "3"]);
        let md = t.markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| x "));
        assert!(lines[1].contains("---"));
        // Columns aligned: all lines same length.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["plain".into(), "with,comma".into()]);
        t.row(&["with\"quote".into(), "x".into()]);
        let csv = t.csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn fmt_g_ranges() {
        assert_eq!(fmt_g(0.0), "0");
        assert_eq!(fmt_g(4.5678), "4.568");
        assert_eq!(fmt_g(12345.0), "12345");
        assert_eq!(fmt_g(1.23e7), "1.230e7");
        assert_eq!(fmt_g(0.0001), "1.000e-4");
    }

    #[test]
    fn counts() {
        let mut t = Table::new(&["a"]);
        assert!(t.is_empty());
        t.row_display(&[1]);
        assert_eq!(t.n_rows(), 1);
    }
}
