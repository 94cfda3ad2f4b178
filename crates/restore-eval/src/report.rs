//! ASCII tables and JSON persistence for experiment results.

use std::fs;
use std::path::PathBuf;

use restore_util::json::ToJson;

/// Prints an ASCII table with a title row.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!(" {c:<w$} |"));
        }
        s
    };
    let sep: String = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    println!("{sep}");
    println!(
        "{}",
        line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!("{sep}");
    for row in rows {
        println!("{}", line(row));
    }
    println!("{sep}");
}

/// Formats a ratio as a percentage (`0.42` → `"42.0%"`).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats seconds with millisecond precision.
pub fn secs(x: f64) -> String {
    format!("{x:.3}s")
}

/// Directory where experiment artifacts are written.
pub(crate) fn results_dir() -> PathBuf {
    let dir = std::env::var("RESTORE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Serializes an experiment result to `results/<name>.json`.
pub fn save_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = fs::write(&path, value.to_json()) {
        eprintln!("warning: cannot write {path:?}: {e}");
    } else {
        println!("[saved {path:?}]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.425), "42.5%");
        assert_eq!(pct(-0.5), "-50.0%");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
