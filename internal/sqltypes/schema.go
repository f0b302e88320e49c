package sqltypes

import (
	"fmt"
	"strings"
)

// Column describes one column of a table schema.
type Column struct {
	Name     string
	Type     TypeID
	Len      int // declared length for (var)char/(var)binary; 0 = unbounded
	Prec     int // precision for DECIMAL
	Scale    int // scale for DECIMAL
	Nullable bool
	// Hidden marks system columns (the four ledger columns) that are not
	// visible to applications but are exposed through ledger views.
	Hidden bool
	// Dropped marks columns that were logically dropped but physically
	// retained for ledger verification (§3.5.2 of the paper).
	Dropped bool
	// Ordinal is the immutable, catalog-assigned position of the column.
	// It is included in the row serialization format so that an attacker
	// cannot re-map values to different columns (§3.2, §3.5.1).
	Ordinal int
}

// Col is a convenience constructor for a non-nullable column.
func Col(name string, t TypeID) Column { return Column{Name: name, Type: t} }

// NullableCol is a convenience constructor for a nullable column.
func NullableCol(name string, t TypeID) Column {
	return Column{Name: name, Type: t, Nullable: true}
}

// VarCol constructs a variable-length column with a declared length.
func VarCol(name string, t TypeID, length int) Column {
	return Column{Name: name, Type: t, Len: length}
}

// DecimalCol constructs a DECIMAL column.
func DecimalCol(name string, prec, scale int) Column {
	return Column{Name: name, Type: TypeDecimal, Prec: prec, Scale: scale}
}

// Schema is an ordered set of columns.
type Schema struct {
	Columns []Column
	// Key holds the ordinals of the primary-key columns, in key order.
	// Empty means the table is a heap (rows addressed by RID).
	Key []int
}

// NewSchema builds a schema from columns and primary-key column names,
// assigning ordinals positionally.
func NewSchema(cols []Column, keyNames ...string) (*Schema, error) {
	s := &Schema{Columns: make([]Column, len(cols))}
	seen := make(map[string]bool, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("sqltypes: column %d has empty name", i)
		}
		lower := strings.ToLower(c.Name)
		if seen[lower] {
			return nil, fmt.Errorf("sqltypes: duplicate column %q", c.Name)
		}
		seen[lower] = true
		if c.Type == TypeInvalid {
			return nil, fmt.Errorf("sqltypes: column %q has invalid type", c.Name)
		}
		c.Ordinal = i
		s.Columns[i] = c
	}
	for _, kn := range keyNames {
		ord := s.OrdinalOf(kn)
		if ord < 0 {
			return nil, fmt.Errorf("sqltypes: key column %q not found", kn)
		}
		if s.Columns[ord].Nullable {
			return nil, fmt.Errorf("sqltypes: key column %q must not be nullable", kn)
		}
		s.Key = append(s.Key, ord)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for statically-known schemas.
func MustSchema(cols []Column, keyNames ...string) *Schema {
	s, err := NewSchema(cols, keyNames...)
	if err != nil {
		panic(err)
	}
	return s
}

// OrdinalOf returns the ordinal of the named column (case-insensitive),
// or -1 if not present or dropped.
func (s *Schema) OrdinalOf(name string) int {
	for i, c := range s.Columns {
		if !c.Dropped && strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// VisibleColumns returns the application-visible columns (neither hidden
// nor dropped), in ordinal order.
func (s *Schema) VisibleColumns() []Column {
	out := make([]Column, 0, len(s.Columns))
	for _, c := range s.Columns {
		if !c.Hidden && !c.Dropped {
			out = append(out, c)
		}
	}
	return out
}

// Clone deep-copies the schema.
func (s *Schema) Clone() *Schema {
	out := &Schema{
		Columns: append([]Column(nil), s.Columns...),
		Key:     append([]int(nil), s.Key...),
	}
	return out
}

// Validate checks a row against the schema: arity, type identity per
// column, NULL constraints and declared lengths.
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("sqltypes: row has %d values, schema has %d columns", len(r), len(s.Columns))
	}
	for i, v := range r {
		c := s.Columns[i]
		if v.Null {
			// The row codec stores a NULL's tag, and the ledger hashes a row
			// whose NULL is tagged with another type as tampered.
			if v.Type != c.Type {
				return fmt.Errorf("sqltypes: column %q expects %s, got a NULL of type %s", c.Name, c.Type, v.Type)
			}
			if !c.Nullable && !c.Dropped {
				return fmt.Errorf("sqltypes: column %q does not allow NULL", c.Name)
			}
			continue
		}
		if v.Type != c.Type {
			return fmt.Errorf("sqltypes: column %q expects %s, got %s", c.Name, c.Type, v.Type)
		}
		if c.Len > 0 {
			switch {
			case c.Type.IsString() && len(v.Str) > c.Len:
				return fmt.Errorf("sqltypes: column %q value length %d exceeds declared %d", c.Name, len(v.Str), c.Len)
			case c.Type.IsBytes() && len(v.Bytes) > c.Len:
				return fmt.Errorf("sqltypes: column %q value length %d exceeds declared %d", c.Name, len(v.Bytes), c.Len)
			}
		}
		switch c.Type {
		case TypeTinyInt:
			if v.I64 < 0 || v.I64 > 255 {
				return fmt.Errorf("sqltypes: column %q TINYINT out of range: %d", c.Name, v.I64)
			}
		case TypeSmallInt:
			if v.I64 < -32768 || v.I64 > 32767 {
				return fmt.Errorf("sqltypes: column %q SMALLINT out of range: %d", c.Name, v.I64)
			}
		case TypeInt:
			if v.I64 < -2147483648 || v.I64 > 2147483647 {
				return fmt.Errorf("sqltypes: column %q INT out of range: %d", c.Name, v.I64)
			}
		}
	}
	return nil
}

// KeyOf extracts the primary-key values of a row, in key order.
func (s *Schema) KeyOf(r Row) Row {
	k := make(Row, len(s.Key))
	for i, ord := range s.Key {
		k[i] = r[ord]
	}
	return k
}

// String renders the schema as a CREATE TABLE-ish description.
func (s *Schema) String() string {
	var b strings.Builder
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
		if c.Len > 0 {
			fmt.Fprintf(&b, "(%d)", c.Len)
		}
		if c.Type == TypeDecimal {
			fmt.Fprintf(&b, "(%d,%d)", c.Prec, c.Scale)
		}
		if c.Nullable {
			b.WriteString(" NULL")
		}
		if c.Hidden {
			b.WriteString(" HIDDEN")
		}
		if c.Dropped {
			b.WriteString(" DROPPED")
		}
	}
	return b.String()
}
