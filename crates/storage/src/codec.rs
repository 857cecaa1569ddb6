//! Binary encoding of values and rows.
//!
//! Format (little-endian throughout):
//!
//! ```text
//! value  := tag:u8 payload
//!   tag 0 = Null            (no payload)
//!   tag 1 = Bool            payload: u8 (0|1)
//!   tag 2 = Int             payload: i64
//!   tag 3 = Float           payload: f64 bits
//!   tag 4 = Text            payload: len:u32, utf8 bytes
//!   tag 5 = Bytes           payload: len:u32, bytes
//! row    := arity:u16 value*
//! ```
//!
//! The same codec is used for on-page tuples and for snapshot persistence,
//! so decoding is defensive: every read is bounds-checked and malformed
//! input yields [`StorageError::CorruptPage`].

use crate::copymeter;
use crate::error::{Result, StorageError};
use crate::row::Row;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_TEXT: u8 = 4;
const TAG_BYTES: u8 = 5;

/// Append the encoding of `value` to `out`.
pub(crate) fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
    }
}

/// Append the encoding of `row` to `out`.
pub fn encode_row(row: &Row, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&(row.arity() as u16).to_le_bytes());
    for v in row.values() {
        encode_value(v, out);
    }
    copymeter::add(out.len() - start);
}

/// Bytes [`encode_row`] appends for `row`, without encoding it.
pub fn encoded_row_len(row: &Row) -> usize {
    let values: usize = row
        .values()
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Text(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
        })
        .sum();
    2 + values
}

/// A bounds-checked reader over an encoded byte slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::CorruptPage(format!(
                "truncated record: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// Read an f64 stored as its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Decode a single value.
    pub fn value(&mut self) -> Result<Value> {
        let tag = self.u8()?;
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(StorageError::CorruptPage(format!("bad bool byte {b}"))),
            },
            TAG_INT => Ok(Value::Int(self.i64()?)),
            TAG_FLOAT => Ok(Value::Float(self.f64()?)),
            TAG_TEXT => {
                let len = self.u32()? as usize;
                let raw = self.take(len)?;
                let s = std::str::from_utf8(raw).map_err(|e| {
                    StorageError::CorruptPage(format!("invalid utf8 in TEXT value: {e}"))
                })?;
                Ok(Value::Text(s.to_owned()))
            }
            TAG_BYTES => {
                let len = self.u32()? as usize;
                Ok(Value::Bytes(self.take(len)?.to_vec()))
            }
            t => Err(StorageError::CorruptPage(format!("unknown value tag {t}"))),
        }
    }

    /// Decode a row.
    pub fn row(&mut self) -> Result<Row> {
        let start = self.pos;
        let arity = self.u16()? as usize;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(self.value()?);
        }
        copymeter::add(self.pos - start);
        Ok(Row::new(values))
    }

    /// Decode a single value into an existing slot, reusing the slot's
    /// heap allocations (Text/Bytes capacity) when the variants line up.
    pub(crate) fn value_into(&mut self, slot: &mut Value) -> Result<()> {
        let tag = self.u8()?;
        match tag {
            TAG_NULL => *slot = Value::Null,
            TAG_BOOL => match self.u8()? {
                0 => *slot = Value::Bool(false),
                1 => *slot = Value::Bool(true),
                b => return Err(StorageError::CorruptPage(format!("bad bool byte {b}"))),
            },
            TAG_INT => *slot = Value::Int(self.i64()?),
            TAG_FLOAT => *slot = Value::Float(self.f64()?),
            TAG_TEXT => {
                let len = self.u32()? as usize;
                let raw = self.take(len)?;
                let s = std::str::from_utf8(raw).map_err(|e| {
                    StorageError::CorruptPage(format!("invalid utf8 in TEXT value: {e}"))
                })?;
                if let Value::Text(dst) = slot {
                    dst.clear();
                    dst.push_str(s);
                } else {
                    *slot = Value::Text(s.to_owned());
                }
            }
            TAG_BYTES => {
                let len = self.u32()? as usize;
                let raw = self.take(len)?;
                if let Value::Bytes(dst) = slot {
                    dst.clear();
                    dst.extend_from_slice(raw);
                } else {
                    *slot = Value::Bytes(raw.to_vec());
                }
            }
            t => return Err(StorageError::CorruptPage(format!("unknown value tag {t}"))),
        }
        Ok(())
    }

    /// Decode a row into an existing [`Row`], reusing its per-slot
    /// allocations. On error the row's contents are unspecified.
    pub(crate) fn row_into(&mut self, row: &mut Row) -> Result<()> {
        let start = self.pos;
        let arity = self.u16()? as usize;
        let values = row.values_mut();
        values.truncate(arity);
        for slot in values.iter_mut() {
            self.value_into(slot)?;
        }
        for _ in values.len()..arity {
            values.push(self.value()?);
        }
        copymeter::add(self.pos - start);
        Ok(())
    }

    /// Read a length-prefixed UTF-8 string (u32 length). Validates in
    /// place and copies once.
    pub fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        let s = std::str::from_utf8(raw)
            .map_err(|e| StorageError::CorruptSnapshot(format!("invalid utf8 string: {e}")))?;
        Ok(s.to_owned())
    }
}

/// Append a length-prefixed UTF-8 string.
pub(crate) fn encode_string(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Decode a row from a standalone buffer, requiring full consumption.
pub fn decode_row(buf: &[u8]) -> Result<Row> {
    let mut r = Reader::new(buf);
    let row = r.row()?;
    if r.remaining() != 0 {
        return Err(StorageError::CorruptPage(format!(
            "{} trailing bytes after row",
            r.remaining()
        )));
    }
    Ok(row)
}

/// Decode a row from a standalone buffer into an existing [`Row`],
/// reusing its per-slot allocations. Requires full consumption. On
/// error the row's contents are unspecified.
pub fn decode_row_into(buf: &[u8], row: &mut Row) -> Result<()> {
    let mut r = Reader::new(buf);
    r.row_into(row)?;
    if r.remaining() != 0 {
        return Err(StorageError::CorruptPage(format!(
            "{} trailing bytes after row",
            r.remaining()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encode a row into a fresh buffer.
    fn row_bytes(row: &Row) -> Vec<u8> {
        let mut out = Vec::new();
        encode_row(row, &mut out);
        out
    }

    fn round_trip(row: Row) {
        let buf = row_bytes(&row);
        assert_eq!(encoded_row_len(&row), buf.len());
        let back = decode_row(&buf).unwrap();
        assert_eq!(row, back);
    }

    #[test]
    fn round_trip_all_types() {
        round_trip(Row::new(vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(std::f64::consts::PI),
            Value::Float(-0.0),
            Value::Text("héllo wörld".into()),
            Value::Text(String::new()),
            Value::Bytes(vec![0, 1, 2, 255]),
            Value::Bytes(Vec::new()),
        ]));
    }

    #[test]
    fn round_trip_empty_row() {
        round_trip(Row::new(vec![]));
    }

    #[test]
    fn nan_bits_preserved() {
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let buf = row_bytes(&Row::new(vec![Value::Float(nan)]));
        let back = decode_row(&buf).unwrap();
        match back.get(0) {
            Some(Value::Float(x)) => assert_eq!(x.to_bits(), nan.to_bits()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_input_is_error_not_panic() {
        let buf = row_bytes(&Row::new(vec![Value::Text("abcdef".into())]));
        for cut in 0..buf.len() {
            let r = decode_row(&buf[..cut]);
            assert!(r.is_err(), "cut at {cut} should error");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut buf = row_bytes(&Row::new(vec![Value::Int(1)]));
        buf.push(0xAA);
        assert!(decode_row(&buf).is_err());
    }

    #[test]
    fn bad_tag_rejected() {
        let buf = vec![1, 0, 99]; // arity 1, tag 99
        assert!(decode_row(&buf).is_err());
    }

    #[test]
    fn bad_bool_rejected() {
        let buf = vec![1, 0, TAG_BOOL, 7];
        assert!(decode_row(&buf).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = vec![1, 0, TAG_TEXT];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(decode_row(&buf).is_err());
    }

    #[test]
    fn decode_into_matches_decode_and_reuses_slots() {
        let rows = [
            Row::new(vec![
                Value::Int(7),
                Value::Text("a longer title than the next".into()),
                Value::Bytes(vec![9; 64]),
                Value::Float(1.5),
            ]),
            Row::new(vec![
                Value::Int(8),
                Value::Text("short".into()),
                Value::Bytes(vec![1, 2]),
                Value::Null,
            ]),
            Row::new(vec![Value::Bool(true)]),
            Row::new(vec![]),
            Row::new(vec![
                Value::Null,
                Value::Text("back to wide again wide wide".into()),
                Value::Bytes(vec![3; 32]),
                Value::Bool(false),
                Value::Int(-1),
            ]),
        ];
        let mut reused = Row::new(Vec::new());
        for row in &rows {
            let buf = row_bytes(row);
            decode_row_into(&buf, &mut reused).unwrap();
            assert_eq!(&reused, row);
            assert_eq!(reused, decode_row(&buf).unwrap());
        }
        // Reused Text capacity survives a shrink/regrow cycle.
        let wide = row_bytes(&rows[0]);
        let narrow = row_bytes(&rows[1]);
        decode_row_into(&wide, &mut reused).unwrap();
        decode_row_into(&narrow, &mut reused).unwrap();
        assert_eq!(reused, rows[1]);
    }

    #[test]
    fn decode_into_rejects_what_decode_rejects() {
        let mut reused = Row::new(Vec::new());
        let buf = row_bytes(&Row::new(vec![Value::Text("abcdef".into())]));
        for cut in 0..buf.len() {
            assert!(decode_row_into(&buf[..cut], &mut reused).is_err());
        }
        let mut trailing = row_bytes(&Row::new(vec![Value::Int(1)]));
        trailing.push(0xAA);
        assert!(decode_row_into(&trailing, &mut reused).is_err());
        assert!(decode_row_into(&[1, 0, 99], &mut reused).is_err());
    }

    #[test]
    fn copymeter_counts_row_payloads() {
        let row = Row::new(vec![Value::Int(1), Value::Text("abc".into())]);
        let buf = row_bytes(&row);
        crate::copymeter::take();
        let mut reused = Row::new(Vec::new());
        decode_row_into(&buf, &mut reused).unwrap();
        assert_eq!(crate::copymeter::take(), buf.len() as u64);
        let _ = decode_row(&buf).unwrap();
        assert_eq!(crate::copymeter::take(), buf.len() as u64);
        let mut out = Vec::new();
        encode_row(&row, &mut out);
        assert_eq!(crate::copymeter::take(), buf.len() as u64);
    }

    #[test]
    fn string_helper_round_trips() {
        let mut out = Vec::new();
        encode_string("catalog", &mut out);
        let mut r = Reader::new(&out);
        assert_eq!(r.string().unwrap(), "catalog");
        assert_eq!(r.remaining(), 0);
    }
}
