//! Plain-text tables and CSV output for the experiments.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// `writeln!` into a `String` report buffer, ignoring the (infallible)
/// result. Experiments render their whole stdout report through this so
/// that `gqos-bench all --threads <n>` can compute sections concurrently
/// and still print them in a fixed order.
///
/// # Examples
///
/// ```
/// use gqos_bench::outln;
///
/// let mut buf = String::new();
/// outln!(buf, "Cmin = {}", 410);
/// outln!(buf);
/// assert_eq!(buf, "Cmin = 410\n\n");
/// ```
#[macro_export]
macro_rules! outln {
    ($buf:expr) => {{
        $buf.push('\n');
    }};
    ($buf:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($buf, $($arg)*);
    }};
}

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use gqos_bench::Table;
///
/// let mut t = Table::new(vec!["workload".into(), "Cmin".into()]);
/// t.row(vec!["WS".into(), "410".into()]);
/// assert!(t.render().contains("workload"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Shorter rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |row: &[String], widths: &mut [usize]| {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&self.header, &mut widths);
        for r in &self.rows {
            measure(r, &mut widths);
        }
        let mut out = String::new();
        let emit = |row: &[String], out: &mut String, widths: &[usize]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:<w$}  ");
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&self.header, &mut out, &widths);
        let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for r in &self.rows {
            emit(r, &mut out, &widths);
        }
        out
    }
}

/// Writes CSV files into the experiment output directory.
#[derive(Clone, Debug)]
pub struct CsvWriter {
    dir: PathBuf,
}

impl CsvWriter {
    /// Creates a writer rooted at `dir`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Returns any error from creating the directory.
    pub fn new<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(CsvWriter {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    /// Writes `rows` (first row = header) to `<dir>/<name>.csv`.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write(&self, name: &str, rows: &[Vec<String>]) -> io::Result<PathBuf> {
        let path = self.dir.join(format!("{name}.csv"));
        let mut text = String::new();
        for row in rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            text.push_str(&escaped.join(","));
            text.push('\n');
        }
        fs::write(&path, text)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["a".into(), "long-header".into()]);
        t.row(vec!["wide-cell".into(), "1".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].starts_with("wide-cell"));
    }

    #[test]
    fn short_rows_pad() {
        let mut t = Table::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["1".into()]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("gqos_csv_test");
        let w = CsvWriter::new(&dir).unwrap();
        let path = w
            .write(
                "t",
                &[
                    vec!["a".into(), "b".into()],
                    vec!["1,5".into(), "x\"y".into()],
                ],
            )
            .unwrap();
        let text = fs::read_to_string(path).unwrap();
        assert_eq!(text, "a,b\n\"1,5\",\"x\"\"y\"\n");
        let _ = fs::remove_dir_all(dir);
    }
}
