//! Differential test of the scan kernel: `TableHeap::{scan_into,
//! fetch_into}` filtering encoded cells through a compiled `Predicate`
//! against the executor they replaced — decode every row fully, walk the
//! `Expr` tree per row resolving names as it goes, project afterwards.
//!
//! The reference below *is* that old executor (`reference_eval` is the
//! pre-kernel `DbInner::eval`, kept verbatim as the oracle), so the
//! property is "same rows, same order, same `rows_examined`, same
//! error" over random schemas, tombstoned and moved rows, predicate
//! trees, projection masks and limits — not "the new code agrees with
//! itself". A copying sink's row block must be, byte for byte,
//! `encode_rows` of the reference's rows projected the same way.

use std::collections::HashMap;
use std::sync::Arc;

use minidb::engine::ScalarFn;
use minidb::predicate::Predicate;
use minidb::row::{Row, RowId};
use minidb::schema::{ColumnDef, TableSchema};
use minidb::sql::{CmpOp, Expr};
use minidb::storage::{Page, ScanSink, ShardedBufferPool, TableHeap};
use minidb::value::{encode_rows, ColumnType, Value};
use minidb::vdisk::VDisk;
use minidb::{DbError, DbResult};
use proptest::prelude::*;

mod common;
use common::Rng;

const FILE: &str = "t.ibd";

/// A value of type `ty` from a domain small enough that comparisons hit
/// all three orderings; `pad` stretches some TEXT so heaps span pages.
fn value_of(rng: &mut Rng, ty: ColumnType, pad: usize) -> Value {
    if rng.chance(15) {
        return Value::Null;
    }
    match ty {
        ColumnType::Int => Value::Int(rng.index(7) as i64 - 3),
        ColumnType::Text => {
            let stem = ["", "a", "ab", "b", "é"][rng.index(5)];
            let fill = if rng.chance(20) {
                rng.index(pad + 1)
            } else {
                0
            };
            Value::Text(format!("{stem}{}", "x".repeat(fill)))
        }
        ColumnType::Bytes => Value::Bytes(vec![rng.index(3) as u8; rng.index(3)]),
    }
}

/// Any literal at all: compares across types and with NULL are part of
/// the contract (`sql_cmp` orders by type rank, NULL is not-true).
fn literal(rng: &mut Rng) -> Expr {
    let ty = [ColumnType::Int, ColumnType::Text, ColumnType::Bytes][rng.index(3)];
    Expr::Literal(value_of(rng, ty, 0))
}

fn operand(rng: &mut Rng, schema: &TableSchema) -> Expr {
    match rng.index(10) {
        0..=5 => Expr::Column(schema.columns[rng.index(schema.columns.len())].name.clone()),
        6..=7 => literal(rng),
        8 => Expr::Func("LEN".into(), vec![operand(rng, schema)]),
        _ => match rng.index(3) {
            0 => Expr::Column("nosuch".into()),
            1 => Expr::Func("NOFN".into(), vec![literal(rng)]),
            // Wrong arity: LEN itself reports the error.
            _ => Expr::Func("LEN".into(), vec![]),
        },
    }
}

fn expr(rng: &mut Rng, schema: &TableSchema, depth: usize) -> Expr {
    let sub = |rng: &mut Rng| Box::new(expr(rng, schema, depth.saturating_sub(1)));
    match if depth == 0 {
        rng.index(7)
    } else {
        rng.index(12)
    } {
        0..=2 => {
            // Column against literal, either way round: the fused leaf.
            let col = Expr::Column(schema.columns[rng.index(schema.columns.len())].name.clone());
            let op = OPS[rng.index(6)];
            match rng.chance(50) {
                true => Expr::Cmp(Box::new(col), op, Box::new(literal(rng))),
                false => Expr::Cmp(Box::new(literal(rng)), op, Box::new(col)),
            }
        }
        3..=5 => Expr::Cmp(
            Box::new(operand(rng, schema)),
            OPS[rng.index(6)],
            Box::new(operand(rng, schema)),
        ),
        // A bare value in boolean position: true iff a non-zero INT.
        6 => operand(rng, schema),
        7..=8 => Expr::And(sub(rng), sub(rng)),
        9..=10 => Expr::Or(sub(rng), sub(rng)),
        _ => Expr::Not(sub(rng)),
    }
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn functions() -> HashMap<String, ScalarFn> {
    let mut fns: HashMap<String, ScalarFn> = HashMap::new();
    fns.insert(
        "LEN".into(),
        Arc::new(|args: &[Value]| match args {
            [Value::Text(s)] => Ok(Value::Int(s.len() as i64)),
            [Value::Bytes(b)] => Ok(Value::Int(b.len() as i64)),
            [Value::Null] => Ok(Value::Null),
            _ => Err(DbError::Eval("LEN(text | bytes)".into())),
        }),
    );
    fns
}

/// The executor the kernel replaced, verbatim: names resolved per row,
/// operands cloned, one `Value` per node.
fn reference_eval(
    e: &Expr,
    schema: &TableSchema,
    row: &Row,
    fns: &HashMap<String, ScalarFn>,
) -> DbResult<Value> {
    let truthy = |e: &Expr| -> DbResult<bool> {
        Ok(matches!(reference_eval(e, schema, row, fns)?, Value::Int(v) if v != 0))
    };
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(c) => Ok(row.values[schema.column_index(c)?].clone()),
        Expr::Cmp(l, op, r) => {
            let lv = reference_eval(l, schema, row, fns)?;
            let rv = reference_eval(r, schema, row, fns)?;
            let b = match lv.sql_cmp(&rv) {
                None => false,
                Some(o) => match op {
                    CmpOp::Eq => o.is_eq(),
                    CmpOp::Ne => o.is_ne(),
                    CmpOp::Lt => o.is_lt(),
                    CmpOp::Le => o.is_le(),
                    CmpOp::Gt => o.is_gt(),
                    CmpOp::Ge => o.is_ge(),
                },
            };
            Ok(Value::Int(b as i64))
        }
        Expr::And(l, r) => Ok(Value::Int((truthy(l)? && truthy(r)?) as i64)),
        Expr::Or(l, r) => Ok(Value::Int((truthy(l)? || truthy(r)?) as i64)),
        Expr::Not(x) => Ok(Value::Int(!truthy(x)? as i64)),
        Expr::Func(name, args) => {
            let f = fns
                .get(name)
                .ok_or_else(|| DbError::UnknownFunction(name.clone()))?;
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(reference_eval(a, schema, row, fns)?);
            }
            f(&argv)
        }
    }
}

/// What a scan returns: survivors in order, and rows examined.
type Outcome = DbResult<(Vec<Row>, u64)>;

/// Materialize-then-filter over `rows` in the order given: examine,
/// evaluate, keep, stop at the limit; mask the survivors afterwards.
fn reference_scan(
    rows: impl IntoIterator<Item = Row>,
    filter: Option<&Expr>,
    schema: &TableSchema,
    fns: &HashMap<String, ScalarFn>,
    needed: Option<&[bool]>,
    limit: Option<usize>,
) -> Outcome {
    let mut kept = Vec::new();
    let mut examined = 0;
    for mut row in rows {
        if limit.is_some_and(|l| kept.len() >= l) {
            break;
        }
        examined += 1;
        let keep = match filter {
            Some(e) => matches!(reference_eval(e, schema, &row, fns)?, Value::Int(v) if v != 0),
            None => true,
        };
        if keep {
            if let Some(mask) = needed {
                for (i, v) in row.values.iter_mut().enumerate() {
                    if !mask.get(i).copied().unwrap_or(false) {
                        *v = Value::Null;
                    }
                }
            }
            kept.push(row);
        }
    }
    Ok((kept, examined))
}

/// The reference's survivors projected onto `proj`, as a row block.
fn reference_block(outcome: Outcome, proj: &[usize]) -> DbResult<(Vec<u8>, u64)> {
    let (rows, examined) = outcome?;
    let projected: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| proj.iter().map(|&i| r.values[i].clone()).collect())
        .collect();
    let mut block = Vec::new();
    encode_rows(&projected, &mut block);
    Ok((block, examined))
}

/// A copying sink's block bytes and rows examined.
fn block_of(sink: ScanSink<'_>) -> (Vec<u8>, u64) {
    let examined = sink.examined;
    let block = sink.into_block().expect("a copying sink has a block");
    (block.as_bytes().to_vec(), examined)
}

/// Live rows in (page, slot) order, read without the kernel.
fn heap_rows(bp: &ShardedBufferPool, vd: &mut VDisk) -> Vec<Row> {
    let mut rows = Vec::new();
    for page_no in 0..ShardedBufferPool::page_count(vd, FILE) {
        bp.with_page(vd, FILE, page_no, |buf| {
            for (_, cell) in Page::new(buf).iter().map(Result::unwrap) {
                rows.push(Row::decode(cell).unwrap());
            }
        })
        .unwrap();
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn kernel_matches_materialize_then_filter(seed in any::<u64>()) {
        // The whole case derives from one generated seed: the vendored
        // proptest has no recursive strategies to build trees with.
        let mut rng = Rng(seed);
        let n_cols = 1 + rng.index(5);
        let types = [ColumnType::Int, ColumnType::Int, ColumnType::Text, ColumnType::Bytes];
        let schema = TableSchema::new(
            "t",
            (0..n_cols)
                .map(|i| ColumnDef {
                    name: format!("c{i}"),
                    ty: types[rng.index(4)],
                    primary_key: false,
                })
                .collect(),
        )
        .unwrap();

        let bp = ShardedBufferPool::new(8, 2);
        let mut vd = VDisk::new();
        let mut heap = TableHeap::create(&bp, &mut vd, FILE).unwrap();
        let random_row = |rng: &mut Rng, id: RowId| Row {
            id,
            values: schema.columns.iter().map(|c| value_of(rng, c.ty, 2500)).collect(),
        };
        let mut live: Vec<RowId> = Vec::new();
        for _ in 0..rng.index(200) {
            let id = heap.allocate_row_id();
            heap.insert(&bp, &mut vd, &random_row(&mut rng, id)).unwrap();
            live.push(id);
        }
        // Tombstone some slots; re-image others (a new length moves the
        // row to the tail page, so id order stops being page order).
        for _ in 0..live.len() / 4 {
            let id = live.swap_remove(rng.index(live.len()));
            heap.delete(&bp, &mut vd, id).unwrap();
        }
        for _ in 0..live.len() / 4 {
            let id = live[rng.index(live.len())];
            heap.update(&bp, &mut vd, &random_row(&mut rng, id)).unwrap();
        }

        let fns = functions();
        let filter = (!rng.chance(10)).then(|| expr(&mut rng, &schema, 3));
        let pred = filter.as_ref().map(|e| Predicate::compile(e, &schema, &fns));
        let needed: Option<Vec<bool>> =
            rng.chance(60).then(|| (0..n_cols).map(|_| rng.chance(50)).collect());
        let limit = rng.chance(50).then(|| rng.index(12));

        // Heap order.
        let want = reference_scan(
            heap_rows(&bp, &mut vd), filter.as_ref(), &schema, &fns, needed.as_deref(), limit,
        );
        let mut sink = ScanSink::new(pred.as_ref(), needed.as_deref(), limit);
        let got: Outcome = heap
            .scan_into(&bp, &mut vd, None, &mut sink)
            .map(|_| (sink.rows, sink.examined));
        prop_assert_eq!(&got, &want, "scan_into, filter {:?}", filter);

        // Index order: any sequence of live ids, repeats included.
        let by_id: HashMap<RowId, Row> =
            heap_rows(&bp, &mut vd).into_iter().map(|r| (r.id, r)).collect();
        let ids: Vec<RowId> = (0..rng.index(2 * live.len() + 1))
            .map(|_| live[rng.index(live.len())])
            .collect();
        let want = reference_scan(
            ids.iter().map(|id| by_id[id].clone()),
            filter.as_ref(), &schema, &fns, needed.as_deref(), limit,
        );
        let mut sink = ScanSink::new(pred.as_ref(), needed.as_deref(), limit);
        let got: Outcome = heap
            .fetch_into(&bp, &mut vd, &ids, &mut sink)
            .map(|_| (sink.rows, sink.examined));
        prop_assert_eq!(&got, &want, "fetch_into {:?}, filter {:?}", ids, filter);

        // A select list: `*`, or columns reordered and repeated. The
        // columns it copies are among those the mask checks, as the
        // engine's mask covers its select list.
        let proj: Vec<usize> = match rng.chance(30) {
            true => (0..n_cols).collect(),
            false => (0..1 + rng.index(2 * n_cols)).map(|_| rng.index(n_cols)).collect(),
        };
        let needed: Option<Vec<bool>> = needed.map(|mut mask| {
            for &i in &proj {
                mask[i] = true;
            }
            mask
        });
        let needed = needed.as_deref();
        let want = reference_block(
            reference_scan(heap_rows(&bp, &mut vd), filter.as_ref(), &schema, &fns, needed, limit),
            &proj,
        );
        let mut sink = ScanSink::copying(pred.as_ref(), &proj, limit);
        let got = heap.scan_into(&bp, &mut vd, None, &mut sink).map(|_| block_of(sink));
        prop_assert_eq!(&got, &want, "copying scan_into {:?}, filter {:?}", proj, filter);
        let want = reference_block(
            reference_scan(
                ids.iter().map(|id| by_id[id].clone()),
                filter.as_ref(), &schema, &fns, needed, limit,
            ),
            &proj,
        );
        let mut sink = ScanSink::copying(pred.as_ref(), &proj, limit);
        let got = heap.fetch_into(&bp, &mut vd, &ids, &mut sink).map(|_| block_of(sink));
        prop_assert_eq!(&got, &want, "copying fetch_into {:?} {:?}, filter {:?}", ids, proj, filter);
    }
}
