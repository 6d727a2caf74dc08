//! Timing, table rendering, and CSV output for the benchmark harnesses.

use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Run `f`, returning its result and wall-clock duration.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Format a duration as milliseconds with three decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// A result table that prints like the paper's figures and also lands in
/// `bench-results/<name>.csv`.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (figure/table id plus description).
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringifies every cell).
    pub fn row<D: Display>(&mut self, cells: &[D]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Render to stdout with aligned columns.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Write as CSV into `bench-results/<name>.csv` (directory created).
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut body = String::new();
        body.push_str(&self.headers.join(","));
        body.push('\n');
        for row in &self.rows {
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
            body.push_str(&escaped.join(","));
            body.push('\n');
        }
        std::fs::write(&path, body)?;
        Ok(path)
    }

    /// Print and persist under `name`.
    pub fn emit(&self, name: &str) {
        self.print();
        match self.write_csv(name) {
            Ok(path) => println!("[written {}]", path.display()),
            Err(e) => eprintln!("[csv write failed: {e}]"),
        }
    }
}

/// The `bench-results/` directory (next to the workspace root when run via
/// cargo, else the current directory).
pub fn results_dir() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../../bench-results"))
        .unwrap_or_else(|_| PathBuf::from("bench-results"))
}

/// Human-readable byte count.
pub fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = n as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures() {
        let (v, d) = time(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(d >= Duration::from_millis(5));
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("test", &["a", "b"]);
        t.row(&["1", "2"]);
        t.row(&["x,y", "z"]);
        let path = t.write_csv("unit-test-table").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("a,b"));
        assert!(body.contains("\"x,y\",z"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("test", &["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(human_bytes(512), "512.00 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert!(human_bytes(3 * 1024 * 1024).contains("MiB"));
    }
}
