//! The perf gate: `anacin bench compare PARENT_DIR CHANGE_DIR`.
//!
//! Each directory holds one build's reports of one tier, one
//! `bench baseline` (or `bench large`) process per file, and the two
//! builds ran alternately on one machine, so same-named files form a
//! pair. Every numeric `*_ms` and `*_mib` field of a report is a column:
//! those of each `patterns` row (named by its pattern), of the `serve`
//! row, and of each `gram_scale` row (named by its run count). Reports
//! are read through the [`serde::Value`] tree, so a report of another
//! shape pairs on the columns both sides have; a column that is missing
//! from some report is listed as unpaired and never compared.
//!
//! Per column the comparison gives each side's median and quartiles, the
//! change in median and the pairs the change won and lost. Following
//! Hunold & Carpen-Amarie, it compares distributions, not single
//! numbers: an end-to-end column is flagged only when the change is
//! slower in at least nine tenths of the pairs, its median is more than
//! [`MAX_SLOWDOWN`] above the parent's, and the two interquartile ranges
//! do not overlap. Stage columns are printed for attribution and never
//! flagged: between runs of one binary the small patterns' stages spread
//! by up to a quarter of their median.

use anacin_stats::Summary;
use serde::{map_get, Map, Serialize, Value};

/// Largest median slowdown an end-to-end column may show unflagged: 25 %,
/// the bound `BENCHMARK.json` sets on every end-to-end metric of the
/// repository benchmark.
pub const MAX_SLOWDOWN: f64 = 0.25;

/// Fewest pairs a comparison accepts: at ten, nine tenths of the pairs
/// leaves room for one that went the other way.
pub const MIN_PAIRS: usize = 10;

/// Fields that time or size a whole operation: campaign wall time, the
/// store and serve round trips, and peak memory. Every `gram_scale` field
/// is end-to-end too (one whole Gram computation). All other columns are
/// stages of these.
const END_TO_END: &[&str] = &[
    "total_ms",
    "campaign_ms",
    "store_cold_ms",
    "store_warm_ms",
    "serve_cold_ms",
    "serve_warm_ms",
    "peak_rss_mib",
];

/// One column over every pair.
#[derive(Debug, Clone, Serialize)]
pub struct ColumnComparison {
    /// `row/field`, e.g. `amg2013/total_ms`, `serve/serve_cold_ms` or
    /// `gram_scale/256/exact_ms`.
    pub column: String,
    /// End-to-end columns can be flagged; stage columns cannot.
    pub end_to_end: bool,
    /// The parent's values (`n` is the number of pairs).
    pub parent: Summary,
    /// The change's values.
    pub change: Summary,
    /// Change in median, percent of the parent's median.
    pub median_change_pct: f64,
    /// Pairs in which the change was lower (ties count for neither side).
    pub wins: usize,
    /// Pairs in which the change was higher.
    pub losses: usize,
    /// True when the column regressed by all three conditions.
    pub flagged: bool,
}

/// Everything `bench compare` found, serialised verbatim by `--json`.
#[derive(Debug, Clone, Serialize)]
pub struct Comparison {
    /// Report names, one per pair.
    pub files: Vec<String>,
    /// Columns present on both sides of every pair, in report order.
    pub columns: Vec<ColumnComparison>,
    /// Columns missing from at least one report: listed, not compared.
    pub unpaired: Vec<String>,
}

impl Comparison {
    /// Names of the flagged columns.
    pub fn flagged(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| c.flagged)
            .map(|c| c.column.as_str())
            .collect()
    }

    /// Human-readable table, one line per column.
    pub fn render_table(&self) -> String {
        let side = |s: &Summary| format!("{:.3} [{:.3}, {:.3}]", s.median, s.q1, s.q3);
        let header = [
            "column",
            "n",
            "parent median [q1, q3]",
            "change median [q1, q3]",
            "median",
            "wins",
            "losses",
            "status",
        ]
        .map(String::from);
        let mut rows = vec![header];
        for c in &self.columns {
            let status = match (c.flagged, c.end_to_end) {
                (true, _) => "REGRESSION",
                (false, true) => "ok",
                (false, false) => "stage",
            };
            rows.push([
                c.column.clone(),
                c.parent.n.to_string(),
                side(&c.parent),
                side(&c.change),
                format!("{:+.1}%", c.median_change_pct),
                c.wins.to_string(),
                c.losses.to_string(),
                status.to_string(),
            ]);
        }
        let mut widths = [0usize; 8];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = format!(
            "bench compare: {} pair(s), {} column(s), {} unpaired, {} flagged\n",
            self.files.len(),
            self.columns.len(),
            self.unpaired.len(),
            self.flagged().len()
        );
        for row in &rows {
            let cells: Vec<String> = row
                .iter()
                .zip(widths)
                .enumerate()
                .map(|(i, (cell, w))| match i {
                    0 | 7 => format!("{cell:<w$}"),
                    _ => format!("{cell:>w$}"),
                })
                .collect();
            out.push_str(cells.join("  ").trim_end());
            out.push('\n');
        }
        if !self.unpaired.is_empty() {
            out.push_str(&format!(
                "unpaired (missing from some report, not compared): {}\n",
                self.unpaired.join(", ")
            ));
        }
        out
    }
}

/// Every numeric `*_ms` and `*_mib` field of one report, as
/// `(column, value)` in report order.
fn columns(content: &str) -> Result<Vec<(String, f64)>, String> {
    let root = serde_json::from_str_value(content).map_err(|e| e.to_string())?;
    let obj = root.as_object().ok_or("report is not a JSON object")?;
    let mut out = Vec::new();
    let mut push = |row: &str, fields: &Map| {
        let measures = fields
            .iter()
            .filter(|(key, _)| key.ends_with("_ms") || key.ends_with("_mib"));
        for (key, value) in measures {
            if let Some(v) = value.as_f64() {
                out.push((format!("{row}/{key}"), v));
            }
        }
    };
    let patterns = map_get(obj, "patterns")
        .as_array()
        .ok_or("report has no 'patterns' array")?;
    for row in patterns {
        let row = row.as_object().ok_or("pattern row is not an object")?;
        let name = map_get(row, "pattern")
            .as_str()
            .ok_or("pattern row has no 'pattern' name")?;
        push(name, row);
    }
    if let Some(serve) = map_get(obj, "serve").as_object() {
        push("serve", serve);
    }
    let gram_rows = map_get(obj, "gram_scale")
        .as_object()
        .and_then(|g| map_get(g, "rows").as_array());
    for row in gram_rows.into_iter().flatten().filter_map(Value::as_object) {
        let runs = map_get(row, "runs")
            .as_int()
            .ok_or("gram_scale row has no 'runs'")?;
        push(&format!("gram_scale/{runs}"), row);
    }
    Ok(out)
}

/// One column's comparison over the paired values.
fn compare_column(column: String, parent: &[f64], change: &[f64]) -> ColumnComparison {
    let p = Summary::of(parent).expect("at least MIN_PAIRS values");
    let c = Summary::of(change).expect("at least MIN_PAIRS values");
    let pairs = || parent.iter().zip(change);
    let wins = pairs().filter(|(p, c)| c < p).count();
    let losses = pairs().filter(|(p, c)| c > p).count();
    let end_to_end = column.starts_with("gram_scale/")
        || END_TO_END.contains(&column.rsplit('/').next().unwrap_or_default());
    // Nine tenths: the rule a speed-up has to meet here (the change wins
    // at least nine of ten alternating pairs), turned around.
    let flagged = end_to_end
        && 10 * losses >= 9 * p.n
        && c.median > p.median * (1.0 + MAX_SLOWDOWN)
        && c.q1 > p.q3;
    ColumnComparison {
        column,
        end_to_end,
        median_change_pct: (c.median / p.median - 1.0) * 100.0,
        parent: p,
        change: c,
        wins,
        losses,
        flagged,
    }
}

/// Compare two builds' reports, each given as `(file name, content)`.
fn compare(parent: &[(String, String)], change: &[(String, String)]) -> Result<Comparison, String> {
    if parent.len() != change.len() {
        return Err(format!(
            "{} parent report(s) against {} change report(s)",
            parent.len(),
            change.len()
        ));
    }
    if parent.len() < MIN_PAIRS {
        return Err(format!(
            "{} pair(s) of reports; bench compare needs at least {MIN_PAIRS}",
            parent.len()
        ));
    }
    let parse = |name: &str, content: &str| columns(content).map_err(|e| format!("{name}: {e}"));
    let (mut p_cols, mut c_cols) = (Vec::new(), Vec::new());
    for (name, content) in parent {
        let (_, other) = change
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("{name} has no same-named change report"))?;
        p_cols.push(parse(name, content)?);
        c_cols.push(parse(name, other)?);
    }
    let mut names: Vec<&String> = Vec::new();
    for (name, _) in p_cols.iter().chain(&c_cols).flatten() {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let mut out = Comparison {
        files: parent.iter().map(|(n, _)| n.clone()).collect(),
        columns: Vec::new(),
        unpaired: Vec::new(),
    };
    for name in names {
        let values = |side: &[Vec<(String, f64)>]| {
            side.iter()
                .map(|cols| cols.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
                .collect::<Option<Vec<f64>>>()
        };
        match (values(&p_cols), values(&c_cols)) {
            (Some(p), Some(c)) => out.columns.push(compare_column(name.clone(), &p, &c)),
            _ => out.unpaired.push(name.clone()),
        }
    }
    Ok(out)
}

/// Compare the `*.json` reports directly inside two directories, which
/// must hold the same names, at least [`MIN_PAIRS`] of them.
pub fn compare_dirs(parent: &str, change: &str) -> Result<Comparison, String> {
    compare(&read_reports(parent)?, &read_reports(change)?)
}

/// Every `*.json` file directly inside `dir`, as `(name, content)`.
fn read_reports(dir: &str) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))? {
        let path = entry.map_err(|e| format!("cannot read {dir}: {e}"))?.path();
        if path.is_file() && path.extension().is_some_and(|x| x == "json") {
            let content = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            files.push((name.into_owned(), content));
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A baseline-shaped report: one pattern row, a serve row and one
    /// gram-scale row.
    fn report(total_ms: f64, simulate_ms: f64) -> String {
        format!(
            r#"{{"procs":32,"runs":10,"patterns":[
                {{"pattern":"amg2013","simulate_ms":{simulate_ms},"total_ms":{total_ms},
                  "store_cold_ms":80.0,"trace_overhead_pct":12.0,"events":120960}}],
              "serve":{{"pattern":"amg2013","serve_cold_ms":85.0,"serve_warm_ms":13.0,
                        "serve_speedup":6.5}},
              "gram_scale":{{"pattern":"amg2013","source_runs":10,
                "rows":[{{"runs":256,"exact_ms":160.0,"landmark_k":16}}]}}}}"#
        )
    }

    type Files = Vec<(String, String)>;

    /// `n` same-named reports per side; pair `i` gets the values of
    /// `parent(i)` and `change(i)`.
    fn sides(
        n: usize,
        parent: impl Fn(usize) -> String,
        change: impl Fn(usize) -> String,
    ) -> (Files, Files) {
        let name = |i: usize| format!("BENCH_{i:02}.json");
        (
            (0..n).map(|i| (name(i), parent(i))).collect(),
            (0..n).map(|i| (name(i), change(i))).collect(),
        )
    }

    /// Run-to-run jitter of a few percent, the same on both sides.
    fn jitter(i: usize) -> f64 {
        [1.0, 1.03, 0.98, 1.01, 0.97][i % 5]
    }

    fn column<'a>(c: &'a Comparison, name: &str) -> &'a ColumnComparison {
        c.columns.iter().find(|x| x.column == name).expect(name)
    }

    #[test]
    fn identical_distributions_flag_nothing() {
        let r = |i| report(45.0 * jitter(i), 28.0 * jitter(i + 1));
        let (p, c) = sides(10, r, r);
        let cmp = compare(&p, &c).unwrap();
        assert!(cmp.flagged().is_empty(), "{}", cmp.render_table());
        assert!(cmp.unpaired.is_empty());
        let names: Vec<&str> = cmp.columns.iter().map(|c| c.column.as_str()).collect();
        assert_eq!(
            names,
            [
                "amg2013/simulate_ms",
                "amg2013/total_ms",
                "amg2013/store_cold_ms",
                "serve/serve_cold_ms",
                "serve/serve_warm_ms",
                "gram_scale/256/exact_ms",
            ]
        );
        let total = column(&cmp, "amg2013/total_ms");
        assert_eq!((total.parent.n, total.wins, total.losses), (10, 0, 0));
        assert_eq!(total.median_change_pct, 0.0);
        assert!(total.end_to_end);
        assert!(!column(&cmp, "amg2013/simulate_ms").end_to_end);
        assert!(column(&cmp, "gram_scale/256/exact_ms").end_to_end);
    }

    #[test]
    fn a_step_in_one_end_to_end_column_flags_exactly_that_column() {
        let (p, c) = sides(
            10,
            |i| report(45.0 * jitter(i), 28.0 * jitter(i)),
            |i| report(1.5 * 45.0 * jitter(i + 2), 28.0 * jitter(i)),
        );
        let cmp = compare(&p, &c).unwrap();
        assert_eq!(cmp.flagged(), ["amg2013/total_ms"]);
        let total = column(&cmp, "amg2013/total_ms");
        assert_eq!((total.wins, total.losses), (0, 10));
        assert!(total.median_change_pct > 40.0);
        let table = cmp.render_table();
        assert!(table.contains("REGRESSION"), "{table}");
        assert!(table.contains("1 flagged"), "{table}");
    }

    #[test]
    fn losing_nine_pairs_by_less_than_the_bound_is_not_flagged() {
        let (p, c) = sides(
            10,
            |i| report(45.0 * jitter(i), 28.0),
            |i| report(45.0 * jitter(i) * if i == 0 { 0.9 } else { 1.2 }, 28.0),
        );
        let cmp = compare(&p, &c).unwrap();
        let total = column(&cmp, "amg2013/total_ms");
        assert_eq!((total.wins, total.losses), (1, 9));
        assert!(total.change.q1 > total.parent.q3);
        assert!(!total.flagged);
        assert!(cmp.flagged().is_empty());
    }

    #[test]
    fn a_doubled_stage_column_is_not_flagged() {
        let (p, c) = sides(
            10,
            |i| report(45.0, 28.0 * jitter(i)),
            |i| report(45.0, 2.0 * 28.0 * jitter(i)),
        );
        let cmp = compare(&p, &c).unwrap();
        let sim = column(&cmp, "amg2013/simulate_ms");
        assert_eq!(sim.losses, 10);
        assert!(!sim.flagged);
        assert!(cmp.flagged().is_empty());
        assert!(cmp.render_table().contains("stage"));
    }

    #[test]
    fn a_column_on_one_side_only_is_unpaired() {
        let old = |_| r#"{"patterns":[{"pattern":"amg2013","total_ms":5.0}]}"#.to_string();
        let new = |_| {
            r#"{"patterns":[{"pattern":"amg2013","total_ms":5.0,"peak_rss_mib":90.0}]}"#.to_string()
        };
        let (p, c) = sides(10, old, new);
        let cmp = compare(&p, &c).unwrap();
        assert_eq!(cmp.unpaired, ["amg2013/peak_rss_mib"]);
        assert_eq!(cmp.columns.len(), 1);
        assert!(cmp.render_table().contains("unpaired"));
    }

    #[test]
    fn too_few_pairs_or_different_names_are_errors() {
        let r = |_| report(45.0, 28.0);
        let (p, c) = sides(9, r, r);
        assert!(compare(&p, &c).unwrap_err().contains("at least 10"));
        let (p, mut c) = sides(10, r, r);
        c[3].0 = "BENCH_other.json".to_string();
        assert!(compare(&p, &c).unwrap_err().contains("BENCH_03.json"));
        let (p, mut c) = sides(11, r, r);
        c.pop();
        assert!(compare(&p, &c).is_err());
    }
}
