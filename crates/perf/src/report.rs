//! Plain-text table formatting for the benchmark binaries.

/// A simple fixed-width table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for i in 0..ncol {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }
}

/// Formats seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["a", "long_header", "c"]);
        t.row(&["1".into(), "2".into(), "3".into()]);
        t.row(&["10".into(), "2000000".into(), "x".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long_header"));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(123.456), "123.5");
        assert_eq!(fmt_secs(1.234), "1.23");
        assert_eq!(fmt_secs(0.01234), "0.0123");
    }
}
