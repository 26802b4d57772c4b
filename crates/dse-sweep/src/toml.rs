//! Minimal TOML subset parser for sweep scenario specs.
//!
//! The build environment has no crates.io access, so the spec format is a
//! hand-parsed subset of TOML: `[table]` and `[[array-of-tables]]`
//! headers, bare keys, and values that are quoted strings, integers,
//! booleans, or flat arrays of those. That covers everything a scenario
//! spec needs while staying loadable by any real TOML tool.

use std::collections::BTreeMap;

/// A parsed TOML value (strings, integers, booleans, flat arrays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    Array(Vec<Value>),
}

impl Value {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a list: an array yields its elements, a scalar yields
    /// itself (so `engine = "sim"` and `engine = ["sim"]` are equivalent
    /// axis declarations).
    pub fn as_list(&self) -> Vec<&Value> {
        match self {
            Value::Array(items) => items.iter().collect(),
            other => vec![other],
        }
    }
}

/// One `key = value` table.
pub type Table = BTreeMap<String, Value>;

/// A parsed document: named scalar tables (`[sweep]`) and named table
/// arrays (`[[scenario]]`), each in declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Document {
    /// Singleton tables, by header name. Top-level bare keys land in `""`.
    pub tables: BTreeMap<String, Table>,
    /// Array-of-tables entries, by header name, in file order.
    pub arrays: BTreeMap<String, Vec<Table>>,
}

impl Document {
    /// The named singleton table, or an empty one.
    pub fn table(&self, name: &str) -> Table {
        self.tables.get(name).cloned().unwrap_or_default()
    }
}

/// Parse a TOML-subset document. Errors carry the 1-based line number.
pub fn parse(src: &str) -> Result<Document, String> {
    let mut doc = Document::default();
    // Where the next `key = value` line lands.
    enum Target {
        Root,
        Table(String),
        ArrayEntry(String),
    }
    let mut target = Target::Root;
    for (lineno, raw) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let name = name.trim().to_string();
            if name.is_empty() {
                return Err(format!("line {lineno}: empty table-array header"));
            }
            doc.arrays
                .entry(name.clone())
                .or_default()
                .push(Table::new());
            target = Target::ArrayEntry(name);
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim().to_string();
            if name.is_empty() {
                return Err(format!("line {lineno}: empty table header"));
            }
            doc.tables.entry(name.clone()).or_default();
            target = Target::Table(name);
            continue;
        }
        let (key, val) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected 'key = value'"))?;
        let key = key.trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!("line {lineno}: bad key '{key}'"));
        }
        let value = parse_value(val.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
        let table = match &target {
            Target::Root => doc.tables.entry(String::new()).or_default(),
            Target::Table(name) => doc.tables.get_mut(name).expect("header inserted"),
            Target::ArrayEntry(name) => doc
                .arrays
                .get_mut(name)
                .and_then(|v| v.last_mut())
                .expect("header inserted"),
        };
        if table.insert(key.to_string(), value).is_some() {
            return Err(format!("line {lineno}: duplicate key '{key}'"));
        }
    }
    Ok(doc)
}

/// Strip a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_value(src: &str) -> Result<Value, String> {
    let (v, rest) = parse_value_prefix(src)?;
    if !rest.trim().is_empty() {
        return Err(format!("trailing garbage after value: '{}'", rest.trim()));
    }
    Ok(v)
}

/// Parse one value off the front of `src`, returning the remainder.
fn parse_value_prefix(src: &str) -> Result<(Value, &str), String> {
    let src = src.trim_start();
    if let Some(rest) = src.strip_prefix('[') {
        let mut items = Vec::new();
        let mut rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(']') {
            return Ok((Value::Array(items), after));
        }
        loop {
            let (v, r) = parse_value_prefix(rest)?;
            items.push(v);
            rest = r.trim_start();
            if let Some(after) = rest.strip_prefix(',') {
                rest = after.trim_start();
                // Tolerate a trailing comma before the closing bracket.
                if let Some(after) = rest.strip_prefix(']') {
                    return Ok((Value::Array(items), after));
                }
                continue;
            }
            if let Some(after) = rest.strip_prefix(']') {
                return Ok((Value::Array(items), after));
            }
            return Err("expected ',' or ']' in array".into());
        }
    }
    if let Some(rest) = src.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((Value::Str(out), &rest[i + 1..])),
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, other)) => return Err(format!("bad escape '\\{other}'")),
                    None => return Err("unterminated escape".into()),
                },
                c => out.push(c),
            }
        }
        return Err("unterminated string".into());
    }
    if let Some(rest) = src.strip_prefix("true") {
        return Ok((Value::Bool(true), rest));
    }
    if let Some(rest) = src.strip_prefix("false") {
        return Ok((Value::Bool(false), rest));
    }
    let end = src
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_digit() || *c == '-' || *c == '+' || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(src.len());
    let tok = &src[..end];
    if tok.is_empty() {
        return Err(format!("expected a value, found '{src}'"));
    }
    let cleaned: String = tok.chars().filter(|c| *c != '_').collect();
    let n: i64 = cleaned
        .parse()
        .map_err(|_| format!("'{tok}' is not a string, integer, boolean or array"))?;
    Ok((Value::Int(n), &src[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_and_arrays_parse() {
        let doc = parse(
            r#"
# a comment
top = 1
[sweep]
name = "full"   # trailing comment
seeds = [1, 2, 3]
[[scenario]]
app = "gauss"
procs = [2, 4]
cache = false
[[scenario]]
app = "dct"
"#,
        )
        .unwrap();
        assert_eq!(doc.table("").get("top"), Some(&Value::Int(1)));
        let sweep = doc.table("sweep");
        assert_eq!(sweep.get("name").unwrap().as_str(), Some("full"));
        assert_eq!(
            sweep.get("seeds"),
            Some(&Value::Array(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(3)
            ]))
        );
        let scenarios = &doc.arrays["scenario"];
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].get("app").unwrap().as_str(), Some("gauss"));
        assert_eq!(scenarios[0].get("cache").unwrap().as_bool(), Some(false));
        assert_eq!(scenarios[1].get("app").unwrap().as_str(), Some("dct"));
    }

    #[test]
    fn strings_keep_escapes_and_hashes() {
        let doc = parse(r#"plan = "seed=7,drop=10 \"x\" \\ #not-a-comment""#).unwrap();
        let v = doc.table("").get("plan").unwrap().clone();
        assert_eq!(v.as_str(), Some(r#"seed=7,drop=10 "x" \ #not-a-comment"#));
    }

    #[test]
    fn scalar_or_array_axes_are_equivalent() {
        let doc = parse("a = \"sim\"\nb = [\"sim\"]").unwrap();
        let t = doc.table("");
        assert_eq!(t["a"].as_list().len(), 1);
        assert_eq!(t["b"].as_list().len(), 1);
        assert_eq!(t["a"].as_list()[0], t["b"].as_list()[0]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert!(parse("[sweep]\nbroken").unwrap_err().contains("line 2"));
        assert!(parse("k = [1, ").unwrap_err().contains("line 1"));
        assert!(parse("k = \"open").unwrap_err().contains("unterminated"));
        assert!(parse("k = 1\nk = 2").unwrap_err().contains("duplicate"));
        assert!(parse("k = 1 2").unwrap_err().contains("trailing"));
    }

    #[test]
    fn negative_and_underscored_integers() {
        let t = parse("a = -5\nb = 1_000").unwrap().table("");
        assert_eq!(t["a"].as_int(), Some(-5));
        assert_eq!(t["b"].as_int(), Some(1000));
    }
}
