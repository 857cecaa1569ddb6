//! Physical plans for SELECT, INSERT, UPDATE and DELETE.

use crate::expr::BoundExpr;
use delayguard_storage::{IndexKey, Value};
use std::ops::Bound;
use std::sync::Arc;

/// How matching rows are located.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AccessPath {
    /// Scan every live row.
    FullScan,
    /// Exact-match lookup on an index over `columns`.
    IndexEq { columns: Vec<usize>, key: IndexKey },
    /// Range scan on a single-column index.
    IndexRange {
        columns: Vec<usize>,
        lo: Bound<IndexKey>,
        hi: Bound<IndexKey>,
    },
}

impl AccessPath {
    /// Write the value of each `(slot, parameter)` in `key_params` into
    /// that probe-key part.
    fn bind_key_params(&mut self, key_params: &[(KeySlot, usize)], params: &[Value]) {
        for &(slot, i) in key_params {
            if let Some(part) = self.key_part(slot) {
                part.clone_from(&params[i]);
            }
        }
    }

    /// The probe-key value `slot` names.
    fn key_part(&mut self, slot: KeySlot) -> Option<&mut Value> {
        let key = match (self, slot) {
            (AccessPath::IndexEq { key, .. }, KeySlot::Eq(_)) => key,
            (AccessPath::IndexRange { lo, .. }, KeySlot::Lo) => bound_key(lo)?,
            (AccessPath::IndexRange { hi, .. }, KeySlot::Hi) => bound_key(hi)?,
            _ => return None,
        };
        let at = match slot {
            KeySlot::Eq(i) => i,
            KeySlot::Lo | KeySlot::Hi => 0,
        };
        key.get_mut(at)
    }
}

fn bound_key(b: &mut Bound<IndexKey>) -> Option<&mut IndexKey> {
    match b {
        Bound::Included(k) | Bound::Excluded(k) => Some(k),
        Bound::Unbounded => None,
    }
}

/// A part of an access path's probe key that a parameter supplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeySlot {
    /// Component `i` of an [`AccessPath::IndexEq`] key.
    Eq(usize),
    /// The lower bound of an [`AccessPath::IndexRange`].
    Lo,
    /// The upper bound of an [`AccessPath::IndexRange`].
    Hi,
}

/// A fully-bound SELECT plan.
///
/// The residual `filter` is the *entire* WHERE clause, re-evaluated on
/// candidate rows whenever the access path might be imprecise — except
/// when the planner proved the probe returns exactly the satisfying rows,
/// in which case `filter` is `None` and candidate rows pass untouched
/// (see the coverage rules in the planner module docs).
///
/// A plan of a statement with parameters is the same plan for every
/// binding: `key_params` names the probe-key parts and the filter's
/// [`BoundExpr::Param`] nodes name the slots that
/// [`SelectPlan::bind_params`] fills in before each execution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SelectPlan {
    pub access: AccessPath,
    /// `(probe-key part, parameter index)` for every key part a
    /// parameter supplies.
    pub key_params: Vec<(KeySlot, usize)>,
    pub filter: Option<BoundExpr>,
    /// Output column positions (in schema order for `SELECT *`).
    pub projection: Vec<usize>,
    /// Names matching `projection`, for result presentation; shared with
    /// every result the plan produces.
    pub output_names: Arc<[String]>,
    /// Sort key position and direction.
    pub order_by: Option<(usize, bool)>,
    pub limit: Option<u64>,
}

impl SelectPlan {
    /// Write `params` into the probe key and the residual filter.
    /// `params` must cover every parameter index the plan names.
    pub(crate) fn bind_params(&mut self, params: &[Value]) {
        self.access.bind_key_params(&self.key_params, params);
        if let Some(filter) = &mut self.filter {
            filter.bind_params(params);
        }
    }
}

/// The row-location phase of an UPDATE or DELETE: a [`SelectPlan`]'s
/// access path, probe-key parameters and residual filter, with nothing
/// to project, sort or limit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LocatePlan {
    pub access: AccessPath,
    pub key_params: Vec<(KeySlot, usize)>,
    pub filter: Option<BoundExpr>,
}

/// A planned INSERT, UPDATE or DELETE. Its expressions are bound to
/// column positions; their [`BoundExpr::Param`] slots and the locate
/// plan's probe key take each execution's values from
/// [`WritePlan::bind_params`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WritePlan {
    /// Each row's `VALUES`, as constant expressions.
    Insert(Vec<Vec<BoundExpr>>),
    /// The rows to change, and `(column position, new value)` for each
    /// assignment, evaluated against the old row.
    Update(LocatePlan, Vec<(usize, BoundExpr)>),
    Delete(LocatePlan),
}

impl WritePlan {
    /// Write `params` into every expression and probe key of the plan.
    /// `params` must cover every parameter index the plan names.
    pub(crate) fn bind_params(&mut self, params: &[Value]) {
        let locate = match self {
            WritePlan::Insert(rows) => {
                rows.iter_mut()
                    .flatten()
                    .for_each(|e| e.bind_params(params));
                return;
            }
            WritePlan::Update(locate, assignments) => {
                for (_, e) in assignments.iter_mut() {
                    e.bind_params(params);
                }
                locate
            }
            WritePlan::Delete(locate) => locate,
        };
        locate.access.bind_key_params(&locate.key_params, params);
        if let Some(filter) = &mut locate.filter {
            filter.bind_params(params);
        }
    }
}
