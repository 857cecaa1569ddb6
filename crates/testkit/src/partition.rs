//! Table partitioning: which node owns which rows.
//!
//! The cluster shards the guarded relation round-robin by key: the row
//! with `id = k` lives on node `k mod N`. Round-robin is the honest
//! stand-in for hash partitioning — ownership is uncorrelated with
//! popularity rank, so every shard holds a proportional slice of the
//! head *and* the tail of the Zipf distribution. (A contiguous-by-rank
//! split would hand some node the entire tail, collapsing its local
//! `f_max` and inflating its delays far past the single-node policy —
//! the closed form in [`delayguard_core::analysis`] assumes the
//! round-robin layout.)
//!
//! The router also uses this map to route point queries: a
//! `WHERE id = k` predicate pins the query to the owner; everything
//! else is broadcast-free and lands on node 0 (the cluster serves the
//! paper's point-lookup workload; scatter-gather is out of scope).

use delayguard_query::ast::{BinOp, Expr, Statement};
use delayguard_query::parse;
use delayguard_storage::Value;

/// The cluster's partition map: `nodes` shards, round-robin by key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMap {
    nodes: usize,
}

impl PartitionMap {
    /// A map over `nodes` shards. Panics on zero.
    pub fn new(nodes: usize) -> PartitionMap {
        assert!(nodes > 0, "a cluster needs at least one node");
        PartitionMap { nodes }
    }

    /// Number of shards.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node owning the row with key `id`.
    pub fn node_for_id(&self, id: u64) -> usize {
        (id % self.nodes as u64) as usize
    }

    /// The node owning popularity rank `rank` (1-based; rank `i` is the
    /// row with `id = i - 1`).
    pub fn node_for_rank(&self, rank: u64) -> usize {
        self.node_for_id(rank - 1)
    }

    /// Whether `id` lives on `node`.
    pub fn owns(&self, node: usize, id: u64) -> bool {
        self.node_for_id(id) == node
    }

    /// The ids owned by `node` among `0..n`, ascending.
    pub fn ids_of(&self, node: usize, n: u64) -> Vec<u64> {
        (0..n).filter(|&id| self.owns(node, id)).collect()
    }

    /// How many of the ids `0..n` node `node` owns.
    pub fn rows_of(&self, node: usize, n: u64) -> u64 {
        let node = node as u64;
        let nodes = self.nodes as u64;
        if node >= n {
            return 0;
        }
        (n - node).div_ceil(nodes)
    }

    /// The routing key of a point statement: the `k` of a
    /// `SELECT`/`UPDATE`/`DELETE` whose whole predicate is `id = <k>`
    /// (column name case-insensitive). `None` for anything else — a
    /// compound or non-`id` predicate, a negative key, unparsable SQL.
    pub fn point_query_id(sql: &str) -> Option<u64> {
        let filter = match parse(sql).ok()? {
            Statement::Select { filter, .. }
            | Statement::Update { filter, .. }
            | Statement::Delete { filter, .. } => filter?,
            _ => return None,
        };
        match filter {
            Expr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } => match (*left, *right) {
                (Expr::Column(c), Expr::Literal(Value::Int(k))) if c.eq_ignore_ascii_case("id") => {
                    u64::try_from(k).ok()
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// The partition key of an `INSERT ... VALUES (<k>, ...)`: the first
    /// literal of the first row, which is the `id` column under the
    /// cluster's schema convention. `None` for a non-integer first value
    /// or any other statement.
    pub fn insert_id(sql: &str) -> Option<u64> {
        match parse(sql).ok()? {
            Statement::Insert { rows, .. } => match rows.first()?.first()? {
                Expr::Literal(Value::Int(k)) => u64::try_from(*k).ok(),
                _ => None,
            },
            _ => None,
        }
    }

    /// Route a statement by its partition key: reads, `UPDATE`s and
    /// `DELETE`s pin to their point predicate's owner, `INSERT`s to the
    /// owner of the new row's id; anything without a recognizable key
    /// lands on node 0.
    pub fn route(&self, sql: &str) -> usize {
        if self.nodes == 1 {
            return 0; // one owner: nothing to parse for
        }
        match Self::point_query_id(sql).or_else(|| Self::insert_id(sql)) {
            Some(id) => self.node_for_id(id),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_ownership() {
        let p = PartitionMap::new(4);
        assert_eq!(p.node_for_id(0), 0);
        assert_eq!(p.node_for_id(1), 1);
        assert_eq!(p.node_for_id(7), 3);
        assert_eq!(p.node_for_rank(1), 0);
        assert_eq!(p.node_for_rank(5), 0);
        assert_eq!(p.node_for_rank(6), 1);
    }

    #[test]
    fn shards_cover_everything_exactly_once() {
        let p = PartitionMap::new(4);
        let n = 11u64;
        let mut seen: Vec<u64> = (0..4).flat_map(|j| p.ids_of(j, n)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        for j in 0..4 {
            assert_eq!(p.rows_of(j, n), p.ids_of(j, n).len() as u64);
        }
    }

    #[test]
    fn rows_of_handles_degenerate_splits() {
        let p = PartitionMap::new(8);
        // 3 rows over 8 nodes: nodes 0..3 get one each, the rest none.
        assert_eq!(p.rows_of(0, 3), 1);
        assert_eq!(p.rows_of(2, 3), 1);
        assert_eq!(p.rows_of(3, 3), 0);
        assert_eq!(p.rows_of(7, 3), 0);
    }

    #[test]
    fn point_queries_parse() {
        assert_eq!(
            PartitionMap::point_query_id("SELECT * FROM directory WHERE id = 42"),
            Some(42)
        );
        assert_eq!(
            PartitionMap::point_query_id("select entry from directory where id=7"),
            Some(7)
        );
        assert_eq!(
            PartitionMap::point_query_id("SELECT * FROM directory"),
            None
        );
        assert_eq!(
            PartitionMap::point_query_id("SELECT * FROM t WHERE id = 1 AND x = 2"),
            None
        );
        assert_eq!(
            PartitionMap::point_query_id("SELECT * FROM t WHERE entry = 'a'"),
            None
        );
    }

    #[test]
    fn routing_pins_points_and_defaults_to_node_zero() {
        let p = PartitionMap::new(4);
        assert_eq!(p.route("SELECT * FROM directory WHERE id = 6"), 2);
        assert_eq!(p.route("CREATE TABLE t (x INT)"), 0);
    }

    /// Regression: the router used to find the predicate by substring
    /// (`" where "`, `" values"`), so any other whitespace, or a trailing
    /// semicolon, sent the statement to node 0 — which does not own the
    /// row and answers with an empty result priced at zero.
    #[test]
    fn routing_follows_the_parsed_statement_not_its_spelling() {
        let p = PartitionMap::new(4);
        for sql in [
            "SELECT * FROM directory\nWHERE id = 5",
            "SELECT * FROM directory\tWHERE\tid\t=\t5",
            "select * from directory where id = 5",
            "SELECT * FROM directory WHERE id = 5;",
            "SELECT * FROM directory WHERE ID=5 ;",
            "UPDATE directory SET entry = 'x'\nWHERE id = 5",
            "DELETE FROM directory\nWHERE id = 5;",
            "INSERT INTO directory\nVALUES\n(5, 'x')",
            "INSERT INTO directory VALUES(5, 'x');",
        ] {
            assert_eq!(p.route(sql), 1, "{sql:?} must reach the owner of id 5");
        }
        // Not a point statement on `id`: node 0, as before.
        for sql in [
            "SELECT * FROM directory WHERE id = 5 AND entry = 'x'",
            "SELECT * FROM directory WHERE id = 5 OR id = 6",
            "SELECT * FROM directory WHERE entry = 'entry-5'",
            "SELECT * FROM directory WHERE id > 5",
            "SELECT * FROM directory WHERE id = -5",
            "SELECT * FROM directory",
            "not sql at all where id = 5",
        ] {
            assert_eq!(p.route(sql), 0, "{sql:?} is not a point statement");
        }
    }

    #[test]
    fn insert_keys_parse() {
        assert_eq!(
            PartitionMap::insert_id("INSERT INTO directory VALUES (42, 'x')"),
            Some(42)
        );
        assert_eq!(
            PartitionMap::insert_id("insert into t values(7,'a')"),
            Some(7)
        );
        assert_eq!(
            PartitionMap::insert_id("INSERT INTO t VALUES ('a', 7)"),
            None
        );
        assert_eq!(PartitionMap::insert_id("DELETE FROM t WHERE id = 1"), None);
    }

    #[test]
    fn writes_route_by_partition_key() {
        let p = PartitionMap::new(4);
        assert_eq!(p.route("INSERT INTO directory VALUES (6, 'x')"), 2);
        assert_eq!(p.route("UPDATE directory SET entry = 'y' WHERE id = 7"), 3);
        assert_eq!(p.route("DELETE FROM directory WHERE id = 5"), 1);
        // No recognizable key: lands on node 0 like un-routable reads.
        assert_eq!(p.route("DELETE FROM directory"), 0);
    }
}
