// Package sqltypes defines the SQL type system used throughout the engine:
// column types, typed values, rows, schemas and the order-preserving key
// encoding used by B+tree indexes.
//
// The type system intentionally mirrors the subset of SQL Server types that
// the SQL Ledger paper's serialization format (§3.2) must cover: fixed-width
// integers of several sizes (so that the metadata-tampering attack described
// in the paper — redeclaring an INT as SMALLINT — is expressible), variable
// length character and binary data, and a few scalar types common in
// Systems-of-Record schemas.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// TypeID identifies a SQL column type.
type TypeID uint8

// Supported column types.
const (
	TypeInvalid   TypeID = iota
	TypeBit              // bool, 1 byte
	TypeTinyInt          // uint8
	TypeSmallInt         // int16
	TypeInt              // int32
	TypeBigInt           // int64
	TypeFloat            // float64
	TypeDecimal          // fixed precision/scale, stored as scaled int64
	TypeChar             // fixed-length string
	TypeVarChar          // variable-length string
	TypeNVarChar         // variable-length unicode string
	TypeBinary           // fixed-length bytes
	TypeVarBinary        // variable-length bytes
	TypeDateTime         // time, stored as unix nanoseconds (UTC)
	TypeUniqueID         // 16-byte identifier
)

// String returns the SQL-ish name of the type.
func (t TypeID) String() string {
	switch t {
	case TypeBit:
		return "BIT"
	case TypeTinyInt:
		return "TINYINT"
	case TypeSmallInt:
		return "SMALLINT"
	case TypeInt:
		return "INT"
	case TypeBigInt:
		return "BIGINT"
	case TypeFloat:
		return "FLOAT"
	case TypeDecimal:
		return "DECIMAL"
	case TypeChar:
		return "CHAR"
	case TypeVarChar:
		return "VARCHAR"
	case TypeNVarChar:
		return "NVARCHAR"
	case TypeBinary:
		return "BINARY"
	case TypeVarBinary:
		return "VARBINARY"
	case TypeDateTime:
		return "DATETIME"
	case TypeUniqueID:
		return "UNIQUEIDENTIFIER"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Defined reports whether t is one of the supported column types.
func (t TypeID) Defined() bool { return t > TypeInvalid && t <= TypeUniqueID }

// IsInteger reports whether t is one of the integer types.
func (t TypeID) IsInteger() bool {
	switch t {
	case TypeBit, TypeTinyInt, TypeSmallInt, TypeInt, TypeBigInt:
		return true
	}
	return false
}

// IsString reports whether t holds character data.
func (t TypeID) IsString() bool {
	switch t {
	case TypeChar, TypeVarChar, TypeNVarChar:
		return true
	}
	return false
}

// IsBytes reports whether t holds raw binary data.
func (t TypeID) IsBytes() bool {
	return t == TypeBinary || t == TypeVarBinary || t == TypeUniqueID
}

// FixedWidth returns the storage width of fixed-width types and 0 for
// variable-width ones.
func (t TypeID) FixedWidth() int {
	switch t {
	case TypeBit, TypeTinyInt:
		return 1
	case TypeSmallInt:
		return 2
	case TypeInt:
		return 4
	case TypeBigInt, TypeFloat, TypeDateTime, TypeDecimal:
		return 8
	case TypeUniqueID:
		return 16
	}
	return 0
}

// Value is a typed, nullable SQL value. The zero Value is the SQL NULL of
// an invalid type; use the constructor helpers to build typed values.
type Value struct {
	Type TypeID
	Null bool
	// I64 holds integers, the scaled decimal value, and DateTime unix
	// nanoseconds. F64 holds floats. Str holds character data. Bytes holds
	// binary data.
	I64   int64
	F64   float64
	Str   string
	Bytes []byte
}

// Null values and constructors.

// NewNull returns the NULL value of type t.
func NewNull(t TypeID) Value { return Value{Type: t, Null: true} }

// NewBit returns a BIT value.
func NewBit(b bool) Value {
	v := Value{Type: TypeBit}
	if b {
		v.I64 = 1
	}
	return v
}

// NewTinyInt returns a TINYINT value.
func NewTinyInt(i uint8) Value { return Value{Type: TypeTinyInt, I64: int64(i)} }

// NewSmallInt returns a SMALLINT value.
func NewSmallInt(i int16) Value { return Value{Type: TypeSmallInt, I64: int64(i)} }

// NewInt returns an INT value.
func NewInt(i int32) Value { return Value{Type: TypeInt, I64: int64(i)} }

// NewBigInt returns a BIGINT value.
func NewBigInt(i int64) Value { return Value{Type: TypeBigInt, I64: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{Type: TypeFloat, F64: f} }

// NewDecimal returns a DECIMAL value holding the already-scaled integer
// representation (e.g. 12345 with scale 2 represents 123.45).
func NewDecimal(scaled int64) Value { return Value{Type: TypeDecimal, I64: scaled} }

// NewChar returns a CHAR value.
func NewChar(s string) Value { return Value{Type: TypeChar, Str: s} }

// NewVarChar returns a VARCHAR value.
func NewVarChar(s string) Value { return Value{Type: TypeVarChar, Str: s} }

// NewNVarChar returns an NVARCHAR value.
func NewNVarChar(s string) Value { return Value{Type: TypeNVarChar, Str: s} }

// NewBinary returns a BINARY value. The slice is not copied.
func NewBinary(b []byte) Value { return Value{Type: TypeBinary, Bytes: b} }

// NewVarBinary returns a VARBINARY value. The slice is not copied.
func NewVarBinary(b []byte) Value { return Value{Type: TypeVarBinary, Bytes: b} }

// NewDateTime returns a DATETIME value. Sub-nanosecond precision is lost;
// the value is normalized to UTC.
func NewDateTime(t time.Time) Value {
	return Value{Type: TypeDateTime, I64: t.UTC().UnixNano()}
}

// Bool returns the BIT value as a bool.
func (v Value) Bool() bool { return v.I64 != 0 }

// Int returns the integer value (valid for integer and decimal types).
func (v Value) Int() int64 { return v.I64 }

// Float returns the FLOAT value.
func (v Value) Float() float64 { return v.F64 }

// String returns a human-readable rendering of the value.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case TypeBit:
		if v.I64 != 0 {
			return "1"
		}
		return "0"
	case TypeTinyInt, TypeSmallInt, TypeInt, TypeBigInt, TypeDecimal:
		return strconv.FormatInt(v.I64, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F64, 'g', -1, 64)
	case TypeChar, TypeVarChar, TypeNVarChar:
		return v.Str
	case TypeBinary, TypeVarBinary, TypeUniqueID:
		return fmt.Sprintf("0x%x", v.Bytes)
	case TypeDateTime:
		return time.Unix(0, v.I64).UTC().Format(time.RFC3339Nano)
	}
	return "<invalid>"
}

// Time returns the DATETIME value.
func (v Value) Time() time.Time { return time.Unix(0, v.I64).UTC() }

// Clone returns a deep copy of the value (its byte slice, if any, is copied).
func (v Value) Clone() Value {
	if v.Bytes != nil {
		b := make([]byte, len(v.Bytes))
		copy(b, v.Bytes)
		v.Bytes = b
	}
	return v
}

// Equal reports deep equality between two values, including type identity.
// Two NULLs of the same type compare equal here (this is storage equality,
// not SQL ternary logic).
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type || v.Null != o.Null {
		return false
	}
	if v.Null {
		return true
	}
	switch {
	case v.Type == TypeFloat:
		return v.F64 == o.F64 || (math.IsNaN(v.F64) && math.IsNaN(o.F64))
	case v.Type.IsString():
		return v.Str == o.Str
	case v.Type.IsBytes():
		return string(v.Bytes) == string(o.Bytes)
	default:
		return v.I64 == o.I64
	}
}

// Compare orders two values of the same type. NULL sorts before any
// non-NULL value. Panics if the types differ.
func (v Value) Compare(o Value) int {
	if v.Type != o.Type {
		panic(fmt.Sprintf("sqltypes: comparing %s with %s", v.Type, o.Type))
	}
	switch {
	case v.Null && o.Null:
		return 0
	case v.Null:
		return -1
	case o.Null:
		return 1
	}
	switch {
	case v.Type == TypeFloat:
		switch {
		case v.F64 < o.F64:
			return -1
		case v.F64 > o.F64:
			return 1
		}
		return 0
	case v.Type.IsString():
		return strings.Compare(v.Str, o.Str)
	case v.Type.IsBytes():
		return strings.Compare(string(v.Bytes), string(o.Bytes))
	default:
		switch {
		case v.I64 < o.I64:
			return -1
		case v.I64 > o.I64:
			return 1
		}
		return 0
	}
}

// Row is an ordered tuple of values, positionally matching a Schema.
type Row []Value

// Clone deep-copies a row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for i, v := range r {
		out[i] = v.Clone()
	}
	return out
}

// Equal reports whether two rows are deeply equal.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the row for diagnostics.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
