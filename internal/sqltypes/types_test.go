package sqltypes

import (
	"math"
	"testing"
	"time"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v   Value
		typ TypeID
		str string
	}{
		{NewBit(true), TypeBit, "1"},
		{NewBit(false), TypeBit, "0"},
		{NewTinyInt(255), TypeTinyInt, "255"},
		{NewSmallInt(-5), TypeSmallInt, "-5"},
		{NewInt(42), TypeInt, "42"},
		{NewBigInt(-1 << 40), TypeBigInt, "-1099511627776"},
		{NewFloat(1.5), TypeFloat, "1.5"},
		{NewDecimal(12345), TypeDecimal, "12345"},
		{NewChar("ab"), TypeChar, "ab"},
		{NewVarChar("x"), TypeVarChar, "x"},
		{NewNVarChar("Ω"), TypeNVarChar, "Ω"},
		{NewBinary([]byte{0xde, 0xad}), TypeBinary, "0xdead"},
		{NewVarBinary([]byte{1}), TypeVarBinary, "0x01"},
	}
	for _, c := range cases {
		if c.v.Type != c.typ {
			t.Errorf("type = %v, want %v", c.v.Type, c.typ)
		}
		if c.v.Null {
			t.Errorf("%v unexpectedly NULL", c.v)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
	if got := NewNull(TypeInt).String(); got != "NULL" {
		t.Errorf("NULL renders as %q", got)
	}
}

func TestDateTimeRoundtrip(t *testing.T) {
	now := time.Date(2026, 7, 5, 12, 30, 0, 123456789, time.UTC)
	v := NewDateTime(now)
	if !v.Time().Equal(now) {
		t.Fatalf("DateTime roundtrip: got %v want %v", v.Time(), now)
	}
}

func TestValueEqual(t *testing.T) {
	if !NewInt(5).Equal(NewInt(5)) {
		t.Error("equal ints not equal")
	}
	if NewInt(5).Equal(NewBigInt(5)) {
		t.Error("different types must not be equal")
	}
	if NewInt(5).Equal(NewNull(TypeInt)) {
		t.Error("value equal to NULL")
	}
	if !NewNull(TypeInt).Equal(NewNull(TypeInt)) {
		t.Error("storage NULLs of same type should be equal")
	}
	if !NewFloat(math.NaN()).Equal(NewFloat(math.NaN())) {
		t.Error("NaN storage equality should hold")
	}
	if !NewVarBinary([]byte{1, 2}).Equal(NewVarBinary([]byte{1, 2})) {
		t.Error("equal bytes not equal")
	}
}

func TestValueCompare(t *testing.T) {
	ordered := []Value{
		NewNull(TypeBigInt), NewBigInt(-10), NewBigInt(0), NewBigInt(7),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	if NewVarChar("a").Compare(NewVarChar("b")) != -1 {
		t.Error("string compare broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("comparing different types should panic")
		}
	}()
	NewInt(1).Compare(NewBigInt(1))
}

func TestValueClone(t *testing.T) {
	b := []byte{1, 2, 3}
	v := NewVarBinary(b)
	c := v.Clone()
	b[0] = 9
	if c.Bytes[0] != 1 {
		t.Fatal("clone shares backing array")
	}
}

func TestRowCloneAndEqual(t *testing.T) {
	r := Row{NewInt(1), NewVarChar("x"), NewVarBinary([]byte{7})}
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone not equal")
	}
	c[2].Bytes[0] = 8
	if r.Equal(c) {
		t.Fatal("deep copy failed")
	}
	if r.Equal(r[:2]) {
		t.Fatal("different arity rows equal")
	}
	if got := r.String(); got != "(1, x, 0x07)" {
		t.Fatalf("Row.String() = %q", got)
	}
}

func TestTypePredicates(t *testing.T) {
	if !TypeInt.IsInteger() || TypeFloat.IsInteger() {
		t.Error("IsInteger wrong")
	}
	if !TypeNVarChar.IsString() || TypeBinary.IsString() {
		t.Error("IsString wrong")
	}
	if !TypeVarBinary.IsBytes() || !TypeUniqueID.IsBytes() || TypeChar.IsBytes() {
		t.Error("IsBytes wrong")
	}
	if TypeInt.FixedWidth() != 4 || TypeSmallInt.FixedWidth() != 2 || TypeVarChar.FixedWidth() != 0 {
		t.Error("FixedWidth wrong")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := MustSchema([]Column{
		Col("id", TypeBigInt),
		VarCol("name", TypeVarChar, 5),
		NullableCol("note", TypeNVarChar),
		Col("small", TypeSmallInt),
		Col("tiny", TypeTinyInt),
		Col("i", TypeInt),
	}, "id")

	good := Row{NewBigInt(1), NewVarChar("abc"), NewNull(TypeNVarChar), NewSmallInt(5), NewTinyInt(1), NewInt(1)}
	if err := s.Validate(good); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	bad := []Row{
		{NewBigInt(1), NewVarChar("abc"), NewNull(TypeNVarChar), NewSmallInt(5), NewTinyInt(1)},                                // arity
		{NewBigInt(1), NewVarChar("toolong"), NewNull(TypeNVarChar), NewSmallInt(5), NewTinyInt(1), NewInt(1)},                 // length
		{NewBigInt(1), NewNull(TypeVarChar), NewNull(TypeNVarChar), NewSmallInt(5), NewTinyInt(1), NewInt(1)},                  // null in non-nullable
		{NewInt(1), NewVarChar("abc"), NewNull(TypeNVarChar), NewSmallInt(5), NewTinyInt(1), NewInt(1)},                        // wrong type
		{NewBigInt(1), NewVarChar("abc"), NewNull(TypeNVarChar), {Type: TypeSmallInt, I64: 40000}, NewTinyInt(1), NewInt(1)},   // smallint range
		{NewBigInt(1), NewVarChar("abc"), NewNull(TypeNVarChar), NewSmallInt(5), {Type: TypeTinyInt, I64: 300}, NewInt(1)},     // tinyint range
		{NewBigInt(1), NewVarChar("abc"), NewNull(TypeNVarChar), NewSmallInt(5), NewTinyInt(1), {Type: TypeInt, I64: 1 << 40}}, // int range
		{NewBigInt(1), NewVarChar("abc"), {Null: true}, NewSmallInt(5), NewTinyInt(1), NewInt(1)},                              // NULL of no type
	}
	for i, r := range bad {
		if err := s.Validate(r); err == nil {
			t.Errorf("bad row %d accepted", i)
		}
	}
}

func TestSchemaConstruction(t *testing.T) {
	if _, err := NewSchema([]Column{Col("a", TypeInt), Col("A", TypeInt)}); err == nil {
		t.Error("duplicate (case-insensitive) columns accepted")
	}
	if _, err := NewSchema([]Column{Col("", TypeInt)}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema([]Column{Col("a", TypeInt)}, "b"); err == nil {
		t.Error("unknown key column accepted")
	}
	if _, err := NewSchema([]Column{NullableCol("a", TypeInt)}, "a"); err == nil {
		t.Error("nullable key column accepted")
	}
	if _, err := NewSchema([]Column{{Name: "a"}}); err == nil {
		t.Error("invalid type accepted")
	}
	s := MustSchema([]Column{Col("a", TypeInt), Col("b", TypeInt)}, "b", "a")
	if len(s.Key) != 2 || s.Key[0] != 1 || s.Key[1] != 0 {
		t.Errorf("key ordinals = %v", s.Key)
	}
	if s.OrdinalOf("B") != 1 || s.OrdinalOf("nope") != -1 {
		t.Error("OrdinalOf wrong")
	}
}

func TestSchemaVisibleColumnsAndKeyOf(t *testing.T) {
	s := MustSchema([]Column{
		Col("a", TypeInt),
		{Name: "h", Type: TypeBigInt, Hidden: true},
		{Name: "d", Type: TypeInt, Dropped: true, Nullable: true},
		Col("b", TypeInt),
	}, "a")
	vis := s.VisibleColumns()
	if len(vis) != 2 || vis[0].Name != "a" || vis[1].Name != "b" {
		t.Fatalf("visible = %+v", vis)
	}
	r := Row{NewInt(7), NewBigInt(1), NewNull(TypeInt), NewInt(8)}
	k := s.KeyOf(r)
	if len(k) != 1 || k[0].Int() != 7 {
		t.Fatalf("KeyOf = %v", k)
	}
	clone := s.Clone()
	clone.Columns[0].Name = "zzz"
	if s.Columns[0].Name != "a" {
		t.Fatal("Clone shares columns")
	}
}

func TestSchemaString(t *testing.T) {
	s := MustSchema([]Column{
		VarCol("v", TypeVarChar, 10),
		DecimalCol("d", 10, 2),
		NullableCol("n", TypeInt),
	})
	got := s.String()
	want := "v VARCHAR(10), d DECIMAL(10,2), n INT NULL"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
