//! Column-major relation instances over interned values.

use std::collections::HashSet;
use std::fmt;

use crate::error::CoreError;
use crate::schema::{AttrId, Schema};
use crate::value::{ValueId, ValuePool};

/// Hard cap on relation cardinality. The CSR partition engine and the
/// incremental membership maps address tuples as `u32`, and `u32::MAX`
/// itself is reserved as the partition sentinel (`UNASSIGNED` / `SKIP`), so
/// the largest admissible tuple id is `u32::MAX - 1`. Ingest rejects the
/// row that would exceed this instead of silently truncating ids.
pub const MAX_ROWS: usize = u32::MAX as usize;

/// A relation instance `I`: a schema plus column-major interned values.
///
/// Columns are `Vec<ValueId>` so partition computation touches one cache-
/// friendly array per attribute. Cells are mutable ([`Relation::set`]) to
/// support data repairs.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    pool: ValuePool,
    columns: Vec<Vec<ValueId>>,
    rows: usize,
}

impl Relation {
    /// Starts building a relation over `schema`.
    pub fn builder(schema: Schema) -> RelationBuilder {
        let width = schema.len();
        RelationBuilder {
            relation: Relation {
                schema,
                pool: ValuePool::new(),
                columns: vec![Vec::new(); width],
                rows: 0,
            },
        }
    }

    /// Convenience constructor: schema from `names`, then one `push_row` per
    /// element of `rows`.
    pub fn from_rows<'a, N, R>(names: N, rows: R) -> Result<Relation, CoreError>
    where
        N: IntoIterator<Item = &'a str>,
        R: IntoIterator<Item = &'a [&'a str]>,
    {
        let mut b = Relation::builder(Schema::new(names)?);
        for row in rows {
            b.push_row(row.iter().copied())?;
        }
        Ok(b.finish())
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The value pool (interned strings).
    #[inline]
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// Number of tuples.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of attributes.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.schema.len()
    }

    /// Whether the relation has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The interned value at `(row, attr)`.
    #[inline]
    pub fn value(&self, row: usize, attr: AttrId) -> ValueId {
        self.columns[attr.index()][row]
    }

    /// The cell text at `(row, attr)`.
    #[inline]
    pub fn text(&self, row: usize, attr: AttrId) -> &str {
        self.pool.resolve(self.value(row, attr))
    }

    /// One whole column of interned values.
    #[inline]
    pub fn column(&self, attr: AttrId) -> &[ValueId] {
        &self.columns[attr.index()]
    }

    /// All cell texts of one row, in schema order.
    pub fn row_texts(&self, row: usize) -> Vec<&str> {
        self.schema
            .attrs()
            .map(|a| self.text(row, a))
            .collect()
    }

    /// Appends a row, interning its values. Returns the new row index.
    ///
    /// Fails with [`CoreError::MalformedInput`] once the relation holds
    /// [`MAX_ROWS`] tuples: tuple ids are `u32` throughout the partition
    /// engine, so admitting more rows would silently truncate them.
    pub fn push_row<'a, I>(&mut self, values: I) -> Result<usize, CoreError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        if self.rows >= MAX_ROWS {
            return Err(CoreError::MalformedInput(format!(
                "relation is at the {MAX_ROWS}-row cap (tuple ids are u32)"
            )));
        }
        // Every value is interned, then pushed straight onto its column; a
        // ragged row is popped off the columns it reached.
        let width = self.schema.len();
        let mut got = 0;
        for v in values {
            let id = self.pool.intern(v);
            if let Some(col) = self.columns.get_mut(got) {
                col.push(id);
            }
            got += 1;
        }
        if got != width {
            for col in &mut self.columns[..got.min(width)] {
                col.pop();
            }
            return Err(CoreError::ArityMismatch {
                row: self.rows,
                expected: width,
                got,
            });
        }
        self.rows += 1;
        Ok(self.rows - 1)
    }

    /// Updates one cell (a **data repair**), interning the new value.
    pub fn set(&mut self, row: usize, attr: AttrId, value: &str) -> Result<ValueId, CoreError> {
        if row >= self.rows {
            return Err(CoreError::RowOutOfBounds {
                row,
                rows: self.rows,
            });
        }
        if attr.index() >= self.schema.len() {
            return Err(CoreError::AttributeOutOfBounds {
                attr: attr.index(),
                width: self.schema.len(),
            });
        }
        let id = self.pool.intern(value);
        self.columns[attr.index()][row] = id;
        Ok(id)
    }

    /// Removes a row in O(attrs) by swapping the last row into its place.
    ///
    /// Returns the *former* index of the row that was moved into `row`'s
    /// slot (always the old last index), or `None` when `row` *was* the
    /// last row and nothing moved. Callers that keep row-addressed state
    /// (e.g. [`crate::IncrementalChecker`]) must rename that tuple id.
    pub fn swap_remove_row(&mut self, row: usize) -> Result<Option<usize>, CoreError> {
        if row >= self.rows {
            return Err(CoreError::RowOutOfBounds {
                row,
                rows: self.rows,
            });
        }
        for col in &mut self.columns {
            col.swap_remove(row);
        }
        self.rows -= 1;
        Ok((row < self.rows).then_some(self.rows))
    }

    /// Updates one cell to an already-interned value.
    pub fn set_id(&mut self, row: usize, attr: AttrId, value: ValueId) -> Result<(), CoreError> {
        if row >= self.rows {
            return Err(CoreError::RowOutOfBounds {
                row,
                rows: self.rows,
            });
        }
        self.columns[attr.index()][row] = value;
        Ok(())
    }

    /// Number of distinct values in a column.
    pub fn distinct_count(&self, attr: AttrId) -> usize {
        let mut seen: HashSet<ValueId> = HashSet::with_capacity(64);
        seen.extend(self.column(attr).iter().copied());
        seen.len()
    }

    /// Counts cells that differ between two same-shape relations —
    /// `dist(I, I')` from the repair model (§5.1).
    pub fn cell_distance(&self, other: &Relation) -> Result<usize, CoreError> {
        if self.schema != other.schema {
            return Err(CoreError::MalformedDependency(
                "cell_distance requires identical schemas".into(),
            ));
        }
        if self.rows != other.rows {
            return Err(CoreError::RowOutOfBounds {
                row: other.rows,
                rows: self.rows,
            });
        }
        let mut dist = 0;
        for attr in self.schema.attrs() {
            for row in 0..self.rows {
                if self.text(row, attr) != other.text(row, attr) {
                    dist += 1;
                }
            }
        }
        Ok(dist)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.schema.attrs().map(|a| self.schema.name(a)).collect();
        writeln!(f, "{}", names.join(" | "))?;
        for row in 0..self.rows.min(20) {
            writeln!(f, "{}", self.row_texts(row).join(" | "))?;
        }
        if self.rows > 20 {
            writeln!(f, "… ({} more rows)", self.rows - 20)?;
        }
        Ok(())
    }
}

/// Incrementally builds a [`Relation`].
#[derive(Debug)]
pub struct RelationBuilder {
    relation: Relation,
}

impl RelationBuilder {
    /// Appends a row of cell texts.
    pub fn push_row<'a, I>(&mut self, values: I) -> Result<usize, CoreError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.relation.push_row(values)
    }

    /// Rows added so far.
    pub fn n_rows(&self) -> usize {
        self.relation.n_rows()
    }

    /// Finalizes the relation.
    pub fn finish(self) -> Relation {
        self.relation
    }
}

/// The paper's Table 1: eleven clinical-trial tuples over
/// `(CC, CTRY, SYMP, TEST, DIAG, MED)`, *without* the blue Example 1.2
/// updates (see [`table1_updated`]).
pub fn table1() -> Relation {
    let rows: &[&[&str]] = &[
        &["US", "USA", "joint pain", "CT", "osteoarthritis", "ibuprofen"],
        &["IN", "India", "joint pain", "CT", "osteoarthritis", "NSAID"],
        &["CA", "Canada", "joint pain", "CT", "osteoarthritis", "naproxen"],
        &["IN", "Bharat", "nausea", "EEG", "migrane", "analgesic"],
        &["US", "America", "nausea", "EEG", "migrane", "tylenol"],
        &["US", "USA", "nausea", "EEG", "migrane", "acetaminophen"],
        &["IN", "India", "chest pain", "X-ray", "hypertension", "morphine"],
        &["US", "USA", "headache", "CT", "hypertension", "cartia"],
        &["US", "USA", "headache", "MRI", "hypertension", "tiazac"],
        &["US", "America", "headache", "MRI", "hypertension", "tiazac"],
        &["US", "USA", "headache", "CT", "hypertension", "tiazac"],
    ];
    Relation::from_rows(["CC", "CTRY", "SYMP", "TEST", "DIAG", "MED"], rows.iter().copied())
        .expect("table1 is well-formed")
}

/// Table 1 with the Example 1.2 updates applied: `t9[MED] = ASA` and
/// `t11[MED] = adizem` (rows are 0-indexed here, so tuples 8 and 10).
pub fn table1_updated() -> Relation {
    let mut r = table1();
    let med = r.schema().attr("MED").expect("MED exists");
    r.set(8, med, "ASA").expect("t9 update");
    r.set(10, med, "adizem").expect("t11 update");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_reads_back() {
        let r = table1();
        assert_eq!(r.n_rows(), 11);
        assert_eq!(r.n_attrs(), 6);
        let cc = r.schema().attr("CC").unwrap();
        let ctry = r.schema().attr("CTRY").unwrap();
        assert_eq!(r.text(0, cc), "US");
        assert_eq!(r.text(3, ctry), "Bharat");
        assert_eq!(r.row_texts(2), vec!["CA", "Canada", "joint pain", "CT", "osteoarthritis", "naproxen"]);
    }

    #[test]
    fn interning_shares_ids_across_columns_and_rows() {
        let r = table1();
        let cc = r.schema().attr("CC").unwrap();
        assert_eq!(r.value(0, cc), r.value(4, cc), "US appears twice");
        // 'NSAID' appears as data and is one pooled value.
        assert!(r.pool().get("NSAID").is_some());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut b = Relation::builder(Schema::new(["A", "B"]).unwrap());
        assert!(matches!(
            b.push_row(["only one"]),
            Err(CoreError::ArityMismatch { row: 0, expected: 2, got: 1 })
        ));
        assert!(matches!(
            b.push_row(["a", "b", "c"]),
            Err(CoreError::ArityMismatch { row: 0, expected: 2, got: 3 })
        ));
        b.push_row(["x", "y"]).unwrap();
        assert_eq!(b.n_rows(), 1);
        // A rejected row leaves no cell behind on any column.
        let r = b.finish();
        for a in r.schema().attrs() {
            assert_eq!(r.column(a).len(), 1);
        }
        assert_eq!(r.row_texts(0), ["x", "y"]);
    }

    #[test]
    fn set_updates_cell_and_rejects_out_of_bounds() {
        let mut r = table1();
        let med = r.schema().attr("MED").unwrap();
        r.set(8, med, "ASA").unwrap();
        assert_eq!(r.text(8, med), "ASA");
        assert!(matches!(
            r.set(99, med, "x"),
            Err(CoreError::RowOutOfBounds { .. })
        ));
        assert!(matches!(
            r.set(0, AttrId::from_index(63), "x"),
            Err(CoreError::AttributeOutOfBounds { .. })
        ));
    }

    #[test]
    fn table1_updated_matches_example_1_2() {
        let r = table1_updated();
        let med = r.schema().attr("MED").unwrap();
        assert_eq!(r.text(8, med), "ASA");
        assert_eq!(r.text(10, med), "adizem");
        assert_eq!(r.text(7, med), "cartia");
    }

    #[test]
    fn distinct_count_counts_values() {
        let r = table1();
        let cc = r.schema().attr("CC").unwrap();
        assert_eq!(r.distinct_count(cc), 3); // US, IN, CA
        let diag = r.schema().attr("DIAG").unwrap();
        assert_eq!(r.distinct_count(diag), 3);
    }

    #[test]
    fn cell_distance_counts_changed_cells() {
        let a = table1();
        let b = table1_updated();
        assert_eq!(a.cell_distance(&b).unwrap(), 2);
        assert_eq!(a.cell_distance(&a).unwrap(), 0);
    }

    #[test]
    fn cell_distance_rejects_mismatched_shapes() {
        let a = table1();
        let other = Relation::from_rows(["X"], [&["1"] as &[&str]]).unwrap();
        assert!(a.cell_distance(&other).is_err());
    }

    #[test]
    fn display_truncates() {
        let r = table1();
        let s = r.to_string();
        assert!(s.contains("CC | CTRY"));
        assert!(s.contains("ibuprofen"));
    }

    #[test]
    fn push_row_after_finish_supports_growth() {
        let mut r = table1();
        let n = r
            .push_row(["US", "USA", "fever", "CT", "flu", "tylenol"])
            .unwrap();
        assert_eq!(n, 11);
        assert_eq!(r.n_rows(), 12);
    }

    #[test]
    fn ingest_rejects_rows_past_the_u32_cap() {
        // Materialising u32::MAX rows is infeasible; fake the count instead.
        // The cap check runs before any column is touched, so the phantom
        // row count is never observed by the rejected push.
        let mut r = Relation::builder(Schema::new(["A"]).unwrap()).finish();
        // u32::MAX is the partition sentinel, so index MAX_ROWS - 1
        // (== u32::MAX - 1) is the last admissible id: a relation holding
        // exactly MAX_ROWS rows is full.
        r.rows = MAX_ROWS;
        let err = r.push_row(["x"]).unwrap_err();
        assert!(
            matches!(err, CoreError::MalformedInput(ref m) if m.contains("cap")),
            "expected a typed MalformedInput, got {err:?}"
        );
        // No partial column writes happened.
        assert!(r.columns.iter().all(Vec::is_empty));
    }

    #[test]
    fn swap_remove_row_moves_the_last_row_in() {
        let mut r = table1();
        let cc = r.schema().attr("CC").unwrap();
        let last = r.row_texts(10).join("|");
        assert_eq!(r.swap_remove_row(2).unwrap(), Some(10));
        assert_eq!(r.n_rows(), 10);
        assert_eq!(r.row_texts(2).join("|"), last);
        // Removing the (new) last row moves nothing.
        assert_eq!(r.swap_remove_row(9).unwrap(), None);
        assert_eq!(r.n_rows(), 9);
        assert!(matches!(
            r.swap_remove_row(9),
            Err(CoreError::RowOutOfBounds { .. })
        ));
        assert_eq!(r.text(0, cc), "US");
    }
}
