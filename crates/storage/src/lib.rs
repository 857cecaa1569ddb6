//! # delayguard-storage
//!
//! An embedded relational storage engine: the substrate on which the
//! delay-based extraction defense of Jayapandian et al. (SDM/VLDB 2004) is
//! implemented and evaluated.
//!
//! The engine provides exactly what the paper's query model needs:
//!
//! * typed tuples ([`Value`], [`Row`], [`Schema`]) stored in slotted pages
//!   ([`page::Page`]) inside heap files ([`heap::HeapFile`]);
//! * B-tree secondary indexes ([`index::Index`]) so selection queries can be
//!   served as point lookups ("each query eventually results in exactly one
//!   tuple", §2.1);
//! * a concurrent [`Catalog`] of tables; and
//! * crash-safe binary snapshots ([`persist`]) so learned popularity state
//!   and data survive restarts.
//!
//! ## Quick example
//!
//! ```
//! use delayguard_storage::{Catalog, Column, DataType, Row, Schema, Value};
//!
//! let catalog = Catalog::new();
//! let schema = Schema::new(vec![
//!     Column::not_null("id", DataType::Int),
//!     Column::not_null("title", DataType::Text),
//! ]).unwrap();
//! let table = catalog.create_table("movies", schema).unwrap();
//! let mut t = table.write();
//! t.create_index("movies_pk", &["id"], true).unwrap();
//! let rid = t.insert(Row::new(vec![Value::Int(1), Value::from("Spider-Man")])).unwrap();
//! assert_eq!(t.get(rid).unwrap().get(1), Some(&Value::from("Spider-Man")));
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod codec;
pub mod copymeter;
pub mod error;
pub mod heap;
pub mod index;
pub mod page;
pub mod persist;
pub mod row;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;
pub mod wal;

pub use catalog::{Catalog, TableRef};
pub use error::{Result, StorageError};
pub use index::{Index, IndexDef, IndexKey};
pub use row::{Row, RowId};
pub use schema::{Column, Schema};
pub use table::Table;
pub use value::{DataType, Value};
pub use wal::{Wal, WalRecord};
