//! Table formatting and report persistence for the reproduction harness.

use std::path::{Path, PathBuf};

use majc_core::json::quote;

/// One paper-vs-measured row.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    pub paper: String,
    pub measured: String,
    pub note: String,
}

impl Row {
    pub fn new(
        name: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        note: impl Into<String>,
    ) -> Row {
        Row { name: name.into(), paper: paper.into(), measured: measured.into(), note: note.into() }
    }
}

/// A titled table of rows.
#[derive(Clone, Debug)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub rows: Vec<Row>,
}

impl Table {
    pub fn new(id: &str, title: &str) -> Table {
        Table { id: id.into(), title: title.into(), rows: Vec::new() }
    }

    pub fn push(&mut self, r: Row) {
        self.rows.push(r);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let headers = ["benchmark", "paper", "measured", "note"];
        let mut w = [headers[0].len(), headers[1].len(), headers[2].len(), headers[3].len()];
        for r in &self.rows {
            w[0] = w[0].max(r.name.len());
            w[1] = w[1].max(r.paper.len());
            w[2] = w[2].max(r.measured.len());
            w[3] = w[3].max(r.note.len());
        }
        let mut out = format!("== {} ({}) ==\n", self.title, self.id);
        let line = |c0: &str, c1: &str, c2: &str, c3: &str, w: &[usize; 4]| {
            format!(
                "  {:<w0$}  {:>w1$}  {:>w2$}  {:<w3$}\n",
                c0,
                c1,
                c2,
                c3,
                w0 = w[0],
                w1 = w[1],
                w2 = w[2],
                w3 = w[3]
            )
        };
        out += &line(headers[0], headers[1], headers[2], headers[3], &w);
        out += &format!("  {}\n", "-".repeat(w.iter().sum::<usize>() + 6));
        for r in &self.rows {
            out += &line(&r.name, &r.paper, &r.measured, &r.note, &w);
        }
        out
    }

    /// Render as JSON (hand-rolled: the workspace builds without a
    /// registry, so no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out += &format!("  \"id\": {},\n", quote(&self.id));
        out += &format!("  \"title\": {},\n", quote(&self.title));
        out += "  \"rows\": [\n";
        for (i, r) in self.rows.iter().enumerate() {
            out += &format!(
                "    {{\"name\": {}, \"paper\": {}, \"measured\": {}, \"note\": {}}}{}\n",
                quote(&r.name),
                quote(&r.paper),
                quote(&r.measured),
                quote(&r.note),
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        out += "  ]\n}\n";
        out
    }

    /// Persist the table as JSON under `target/reports/`.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        save(&format!("{}.json", self.id), &self.to_json())
    }
}

/// Write `contents` to `target/reports/<file>`, creating the directory.
pub fn save(file: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new("target/reports");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// [`save`], worded for a table cell: `saved <path>` or `not saved: <error>`.
pub fn save_note(file: &str, contents: &str) -> String {
    match save(file, contents) {
        Ok(path) => format!("saved {}", path.display()),
        Err(e) => format!("not saved: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("t", "Demo");
        t.push(Row::new("a", "1", "2", ""));
        t.push(Row::new("longer-name", "100", "200", "note"));
        let s = t.render();
        assert!(s.contains("longer-name"));
        assert!(s.lines().count() >= 5);
    }
}
