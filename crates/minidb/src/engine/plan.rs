//! Access paths: which index range, zone-map prune and projection mask
//! a statement's `WHERE` and select list allow.

use std::cmp::Ordering;
use std::ops::Bound;

use crate::catalog::TableDef;
use crate::schema::TableSchema;
use crate::sql::ast::{CmpOp, Expr, SelectItem, SelectStmt};
use crate::value::Value;

/// How a `SELECT` will touch a table: an index range (when a sargable
/// predicate hits an indexed column), a zone-map prune spec for the
/// streaming heap scan, and whether the index bounds alone *guarantee*
/// the full predicate (letting the executor skip per-row re-evaluation).
#[derive(Default)]
pub(super) struct ScanPlan {
    /// Index range, if any sargable conjunct hit an indexed column.
    pub(super) index: Option<IndexPlan>,
    /// The index bounds are exactly the predicate: every conjunct folded
    /// into them, no residual filter remains, and the range provably
    /// excludes stored NULL keys (NULL sorts below every value, so this
    /// requires a bounded, non-NULL lower bound). Only then may the
    /// executor skip the per-row filter on fetched rows.
    pub(super) guaranteed: bool,
    /// Zone-map prune spec for the heap path: `(column ordinal, lo, hi)`
    /// over INT bounds. Pages whose synopsis range is disjoint from it
    /// are skipped without decoding.
    pub(super) prune: Option<(usize, Bound<i64>, Bound<i64>)>,
}

/// Finds sargable conjuncts (`Column op Literal`) over an indexed column
/// and intersects their bounds, so `k >= a AND k <= b` scans only `[a, b]`
/// rather than a half-open range. A filter no index serves plans a heap
/// scan, pruned by the zone map when an INT column is bounded.
pub(super) fn plan_scan(def: &TableDef, where_clause: &Expr) -> ScanPlan {
    let mut conjuncts = Vec::new();
    flatten_and(where_clause, &mut conjuncts);
    let mut plan: Option<IndexPlan> = None;
    // A conjunct the index bounds do not fully capture: the per-row
    // filter stays mandatory.
    let mut residual = false;
    // Accumulated bounds per column (first-mention order) for pruning.
    let mut col_bounds: Vec<(usize, RangeBounds)> = Vec::new();
    for c in conjuncts {
        let Expr::Cmp(l, op, r) = c else {
            residual = true;
            continue;
        };
        let (col, op, lit) = match (l.as_ref(), r.as_ref()) {
            (Expr::Column(c), Expr::Literal(v)) => (c.clone(), *op, v.clone()),
            (Expr::Literal(v), Expr::Column(c)) => (c.clone(), flip(*op), v.clone()),
            _ => {
                residual = true;
                continue;
            }
        };
        if op == CmpOp::Ne {
            residual = true;
            continue;
        }
        let Ok(col_idx) = def.schema.column_index(&col) else {
            residual = true;
            continue;
        };
        // A NULL literal still narrows the index range (harmlessly — the
        // range finds stored NULLs, eval rejects them), but can never be
        // *guaranteed*: `col = NULL` is unknown, not a match.
        if lit == Value::Null {
            residual = true;
        }
        let k = match col_bounds.iter().position(|(i, _)| *i == col_idx) {
            Some(k) => k,
            None => {
                col_bounds.push((col_idx, RangeBounds::new()));
                col_bounds.len() - 1
            }
        };
        col_bounds[k].1.narrow(op, lit.clone());
        match def.indexes.iter().position(|i| i.column_idx == col_idx) {
            Some(pos) => {
                let p = plan.get_or_insert_with(|| IndexPlan {
                    index_pos: pos,
                    bounds: RangeBounds::new(),
                });
                if p.index_pos != pos {
                    residual = true; // Stick with the first indexed column.
                    continue;
                }
                p.bounds.narrow(op, lit);
            }
            None => residual = true,
        }
    }
    let guaranteed = match &plan {
        Some(p) => {
            !residual
                && matches!(
                    &p.bounds.lo,
                    Bound::Included(v) | Bound::Excluded(v)
                        if *v != Value::Null
                )
        }
        None => false,
    };
    // Pruning only matters on the heap path; pick the first column whose
    // accumulated bounds are INT and bounded on at least one side.
    let prune = if plan.is_none() {
        col_bounds.iter().find_map(|(idx, b)| {
            let lo = int_bound(&b.lo)?;
            let hi = int_bound(&b.hi)?;
            if matches!((&lo, &hi), (Bound::Unbounded, Bound::Unbounded)) {
                return None;
            }
            Some((*idx, lo, hi))
        })
    } else {
        None
    };
    ScanPlan {
        index: plan,
        guaranteed,
        prune,
    }
}

/// Converts a `Bound<Value>` to `Bound<i64>` — `None` when the literal
/// is not an INT (the zone map only tracks INT columns).
fn int_bound(b: &Bound<Value>) -> Option<Bound<i64>> {
    use Bound::*;
    match b {
        Unbounded => Some(Unbounded),
        Included(Value::Int(v)) => Some(Included(*v)),
        Excluded(Value::Int(v)) => Some(Excluded(*v)),
        _ => None,
    }
}

/// Collects every column an expression reads into `mask`.
fn expr_columns(e: &Expr, schema: &TableSchema, mask: &mut [bool]) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Column(c) => match schema.column_index(c) {
            Ok(i) => {
                mask[i] = true;
                true
            }
            Err(_) => false,
        },
        Expr::Cmp(l, _, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            expr_columns(l, schema, mask) && expr_columns(r, schema, mask)
        }
        Expr::Not(inner) => expr_columns(inner, schema, mask),
        Expr::Func(_, args) => args.iter().all(|a| expr_columns(a, schema, mask)),
    }
}

/// The projection-pushdown mask for a `SELECT`: which columns the query
/// can possibly read (select list + WHERE + ORDER BY). `None` means
/// materialize everything — a `SELECT *`, or any reference the mask
/// cannot account for (unknown column names fall through so the normal
/// error paths report them).
pub(super) fn needed_columns(schema: &TableSchema, sel: &SelectStmt) -> Option<Vec<bool>> {
    let mut mask = vec![false; schema.columns.len()];
    for item in &sel.items {
        match item {
            SelectItem::Star => return None,
            SelectItem::CountStar => {}
            SelectItem::Column(c) | SelectItem::Aggregate(_, c) => match schema.column_index(c) {
                Ok(i) => mask[i] = true,
                Err(_) => return None,
            },
        }
    }
    if let Some(w) = &sel.where_clause {
        if !expr_columns(w, schema, &mut mask) {
            return None;
        }
    }
    if let Some((c, _)) = &sel.order_by {
        match schema.column_index(c) {
            Ok(i) => mask[i] = true,
            Err(_) => return None,
        }
    }
    Some(mask)
}

/// Accumulated index bounds for one indexed column.
pub(super) struct IndexPlan {
    pub(super) index_pos: usize,
    pub(super) bounds: RangeBounds,
}

/// An accumulated `[lo, hi]` range over one column.
pub(super) struct RangeBounds {
    pub(super) lo: Bound<Value>,
    pub(super) hi: Bound<Value>,
}

impl RangeBounds {
    fn new() -> RangeBounds {
        RangeBounds {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    /// Intersects the current bounds with `col op lit`.
    fn narrow(&mut self, op: CmpOp, lit: Value) {
        use Bound::*;
        use Ordering::{Greater, Less};
        match op {
            CmpOp::Eq => {
                tighten(&mut self.lo, Included(lit.clone()), Greater);
                tighten(&mut self.hi, Included(lit), Less);
            }
            CmpOp::Lt => tighten(&mut self.hi, Excluded(lit), Less),
            CmpOp::Le => tighten(&mut self.hi, Included(lit), Less),
            CmpOp::Gt => tighten(&mut self.lo, Excluded(lit), Greater),
            CmpOp::Ge => tighten(&mut self.lo, Included(lit), Greater),
            CmpOp::Ne => {}
        }
    }

    /// A representative searched key for the adaptive hash index.
    pub(super) fn sample_key(&self) -> Option<Value> {
        use Bound::*;
        match (&self.lo, &self.hi) {
            (Included(v) | Excluded(v), _) => Some(v.clone()),
            (_, Included(v) | Excluded(v)) => Some(v.clone()),
            _ => None,
        }
    }
}
/// Replaces `bound` with `new` when `new` is strictly tighter. A tighter
/// value lies `inward` of the current one (`Greater` for a lower bound,
/// `Less` for an upper one), or at it when it excludes what the current
/// bound includes.
fn tighten(bound: &mut Bound<Value>, new: Bound<Value>, inward: Ordering) {
    use Bound::*;
    let tighter = match (&*bound, &new) {
        (Unbounded, _) => true,
        (_, Unbounded) => false,
        (Included(a) | Excluded(a), Included(b)) | (Excluded(a), Excluded(b)) => b.cmp(a) == inward,
        (Included(a), Excluded(b)) => b.cmp(a) != inward.reverse(),
    };
    if tighter {
        *bound = new;
    }
}

fn flatten_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::And(l, r) => {
            flatten_and(l, out);
            flatten_and(r, out);
        }
        other => out.push(other),
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}
