//! Helpers shared by the root test suites: the `HARBOR_SEED`-overridable
//! [`seed`], and the divergence locator of the fleet identity suites. Two
//! runs that must agree byte for byte are compared piece by piece, and a
//! mismatch is reported as the *first* place they part ways — round, node
//! and field — instead of a bare "not identical" over two long JSON
//! strings.

#![allow(dead_code)] // each suite uses the part it needs

use std::fmt;

/// A suite's seed: `HARBOR_SEED` when set (`HARBOR_SEED=n cargo test`
/// replays a failing case), else the suite's `default`.
pub fn seed(default: u64) -> u64 {
    match std::env::var("HARBOR_SEED") {
        Ok(v) => v.parse().expect("HARBOR_SEED must be a u64"),
        Err(_) => default,
    }
}

/// The first place two runs differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Round count of both runs when the difference was observed.
    pub round: u64,
    /// The node the differing field belongs to, if it belongs to one.
    pub node: Option<u32>,
    /// What differs: a JSON path (`telemetry.per_node[17].rx`), a list
    /// item (`alerts[3]`) or a named counter (`radio.delivered`).
    pub field: String,
    /// The left run's value there (truncated).
    pub left: String,
    /// The right run's value there (truncated).
    pub right: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {}, ", self.round)?;
        match self.node {
            Some(node) => write!(f, "node {node}, ")?,
            None => write!(f, "no single node, ")?,
        }
        write!(f, "field {}: {} != {}", self.field, self.left, self.right)
    }
}

/// Longest value excerpt a report quotes.
const EXCERPT: usize = 60;

fn excerpt(s: &str) -> String {
    match s.char_indices().nth(EXCERPT) {
        Some((i, _)) => format!("{}…", &s[..i]),
        None => s.to_string(),
    }
}

/// Locates the first difference between two JSON documents from the same
/// deterministic writer. `what` names the document (`telemetry`,
/// `rollup`); an element of a `per_node` array is attributed to the node
/// with that index.
pub fn json(round: u64, what: &str, a: &str, b: &str) -> Option<Divergence> {
    if a == b {
        return None;
    }
    let mut at = a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    while !a.is_char_boundary(at) {
        at -= 1;
    }
    // Both sides agree up to `at`: walk that prefix once for the path,
    // then quote each side's scalar from its start to its end.
    let (path, node) = json_path(&a[..at]);
    let start = a[..at].rfind([':', ',', '[', '{']).map_or(0, |i| i + 1);
    let value = |s: &str| {
        let end = s[at..].find([',', '}', ']']).map_or(s.len(), |i| at + i);
        excerpt(&s[start..end.max(start)])
    };
    Some(Divergence {
        round,
        node,
        field: format!("{what}{path}"),
        left: value(a),
        right: value(b),
    })
}

/// The path of the innermost JSON value open at the end of `prefix`, and
/// the index of the enclosing `per_node` element, if any.
fn json_path(prefix: &str) -> (String, Option<u32>) {
    enum Frame {
        Object { key: String, in_key: bool, expect_key: bool },
        Array { index: usize },
    }
    let mut stack: Vec<Frame> = Vec::new();
    let (mut in_string, mut escaped) = (false, false);
    for c in prefix.chars() {
        if in_string {
            let closing = !escaped && c == '"';
            escaped = !escaped && c == '\\';
            if closing {
                in_string = false;
                if let Some(Frame::Object { in_key, .. }) = stack.last_mut() {
                    *in_key = false;
                }
            } else if let Some(Frame::Object { key, in_key: true, .. }) = stack.last_mut() {
                key.push(c);
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                if let Some(Frame::Object { key, in_key, expect_key }) = stack.last_mut() {
                    if *expect_key {
                        key.clear();
                        *in_key = true;
                        *expect_key = false;
                    }
                }
            }
            '{' => {
                stack.push(Frame::Object { key: String::new(), in_key: false, expect_key: true })
            }
            '[' => stack.push(Frame::Array { index: 0 }),
            '}' | ']' => {
                stack.pop();
            }
            ',' => match stack.last_mut() {
                Some(Frame::Array { index }) => *index += 1,
                Some(Frame::Object { expect_key, .. }) => *expect_key = true,
                None => {}
            },
            _ => {}
        }
    }
    let mut path = String::new();
    let mut node = None;
    let mut parent_key = "";
    for frame in &stack {
        match frame {
            Frame::Object { key, .. } => {
                if !key.is_empty() {
                    path.push('.');
                    path.push_str(key);
                }
                parent_key = key;
            }
            Frame::Array { index } => {
                path.push_str(&format!("[{index}]"));
                if parent_key == "per_node" {
                    node = u32::try_from(*index).ok();
                }
                parent_key = "";
            }
        }
    }
    (path, node)
}

/// Locates the first differing item of two lists (or the first item only
/// one side has). `node_of` attributes an item to a node.
pub fn items<T: PartialEq + fmt::Debug>(
    round: u64,
    what: &str,
    a: &[T],
    b: &[T],
    node_of: impl Fn(usize, &T) -> Option<u32>,
) -> Option<Divergence> {
    let i = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    let show = |x: Option<&T>| x.map_or("(absent)".to_string(), |x| excerpt(&format!("{x:?}")));
    Some(Divergence {
        round,
        node: a.get(i).or(b.get(i)).and_then(|x| node_of(i, x)),
        field: format!("{what}[{i}]"),
        left: show(a.get(i)),
        right: show(b.get(i)),
    })
}

/// Locates the first differing node of two per-node JSON lists (index =
/// node id), down to the field: `what[node].field`.
pub fn per_node_json(round: u64, what: &str, a: &[String], b: &[String]) -> Option<Divergence> {
    let i = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    let side = |s: &[String]| s.get(i).cloned().unwrap_or_default();
    let mut d = json(round, &format!("{what}[{i}]"), &side(a), &side(b))?;
    d.node = u32::try_from(i).ok();
    Some(d)
}

/// Locates the first differing entry of two per-node lists of lists
/// (outer index = node id): `what[node][entry]`.
pub fn per_node_items<T: PartialEq + fmt::Debug>(
    round: u64,
    what: &str,
    a: &[Vec<T>],
    b: &[Vec<T>],
) -> Option<Divergence> {
    let i = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    let none = Vec::new();
    let (x, y) = (a.get(i).unwrap_or(&none), b.get(i).unwrap_or(&none));
    items(round, &format!("{what}[{i}]"), x, y, |_, _| u32::try_from(i).ok())
}

/// Locates the first differing counter of two equally named sets.
pub fn counters(
    round: u64,
    what: &str,
    names: &[&str],
    a: &[u64],
    b: &[u64],
) -> Option<Divergence> {
    let i = (0..names.len()).find(|&i| a[i] != b[i])?;
    Some(Divergence {
        round,
        node: None,
        field: format!("{what}.{}", names[i]),
        left: a[i].to_string(),
        right: b[i].to_string(),
    })
}

#[test]
fn json_divergence_names_the_first_differing_leaf() {
    let a = r#"{"rounds":3,"per_node":[{"id":0,"rx":4},{"id":1,"rx":40,"tx":2}]}"#;
    let b = r#"{"rounds":3,"per_node":[{"id":0,"rx":4},{"id":1,"rx":41,"tx":2}]}"#;
    let d = json(3, "telemetry", a, b).expect("documents differ");
    assert_eq!(d.node, Some(1));
    assert_eq!(d.field, "telemetry.per_node[1].rx");
    assert_eq!((d.left.as_str(), d.right.as_str()), ("40", "41"));
    assert_eq!(d.to_string(), "round 3, node 1, field telemetry.per_node[1].rx: 40 != 41");
    assert_eq!(json(3, "telemetry", a, a), None);
}

#[test]
fn json_divergence_outside_per_node_has_no_node() {
    let a = r#"{"cohorts":[{"name":"a","totals":{"rx":1}},{"name":"b","totals":{"rx":7}}]}"#;
    let b = r#"{"cohorts":[{"name":"a","totals":{"rx":1}},{"name":"b","totals":{"rx":9}}]}"#;
    let d = json(5, "rollup", a, b).expect("documents differ");
    assert_eq!((d.node, d.field.as_str()), (None, "rollup.cohorts[1].totals.rx"));
}

#[test]
fn per_node_divergence_names_node_and_field() {
    let a = [r#"{"id":0,"rx":4}"#.to_string(), r#"{"id":1,"rx":4,"tx":7}"#.to_string()];
    let b = [r#"{"id":0,"rx":4}"#.to_string(), r#"{"id":1,"rx":4,"tx":8}"#.to_string()];
    let d = per_node_json(9, "per_node", &a, &b).expect("node 1 differs");
    assert_eq!(d.to_string(), "round 9, node 1, field per_node[1].tx: 7 != 8");
    let d = per_node_items(9, "log", &[vec![1u8], vec![2, 3]], &[vec![1], vec![2]])
        .expect("node 1 has an extra entry");
    assert_eq!((d.node, d.field.as_str()), (Some(1), "log[1][1]"));
}

#[test]
fn item_and_counter_divergence() {
    let d = items(2, "alerts", &[1u32, 2, 3], &[1, 2], |_, &x| Some(x)).expect("lengths differ");
    assert_eq!((d.node, d.field.as_str(), d.right.as_str()), (Some(3), "alerts[2]", "(absent)"));
    let d = counters(2, "radio", &["sent", "delivered"], &[5, 4], &[5, 3]).expect("differ");
    assert_eq!(d.to_string(), "round 2, no single node, field radio.delivered: 4 != 3");
}
