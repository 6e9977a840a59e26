package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Title", "Program", "Value")
	tab.MustAddRow("EP", "1.23")
	tab.MustAddRow("memcached", "45")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Errorf("first line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Program") {
		t.Errorf("header line %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("separator line %q", lines[2])
	}
	// Columns align: "Value" starts at the same offset in every row.
	col := strings.Index(lines[1], "Value")
	if got := strings.Index(lines[3], "1.23"); got != col {
		t.Errorf("row 1 value at col %d, header at %d\n%s", got, col, out)
	}
	if got := strings.Index(lines[4], "45"); got != col {
		t.Errorf("row 2 value at col %d, header at %d\n%s", got, col, out)
	}
	if len(tab.rows) != 2 {
		t.Errorf("Rows = %d", len(tab.rows))
	}
}

func TestTableArityChecked(t *testing.T) {
	tab := NewTable("", "a", "b")
	if err := tab.AddRow("only-one"); err == nil {
		t.Error("wrong arity accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow did not panic on wrong arity")
		}
	}()
	tab.MustAddRow("x")
}

func TestWriteDATBlocks(t *testing.T) {
	series := []Series{
		{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Label: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
	}
	var b strings.Builder
	if err := WriteDAT(&b, series); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# a\n1\t10\n2\t20\n") {
		t.Errorf("block a malformed:\n%s", out)
	}
	if !strings.Contains(out, "\n\n\n# b\n") {
		t.Errorf("blocks not separated by two blank lines:\n%s", out)
	}
}

func TestWriteDATErrors(t *testing.T) {
	var b strings.Builder
	if err := WriteDAT(&b, nil); err == nil {
		t.Error("empty series list accepted")
	}
	bad := []Series{{Label: "x", X: []float64{1}, Y: []float64{}}}
	if err := WriteDAT(&b, bad); err == nil {
		t.Error("ragged series accepted")
	}
}

func TestWriteCSVSharedGrid(t *testing.T) {
	series := []Series{
		{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Label: "b,with comma", X: []float64{1, 2}, Y: []float64{30, 40}},
	}
	var b strings.Builder
	if err := WriteCSV(&b, "u", series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != `u,a,"b,with comma"` {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,10,30" || lines[2] != "2,20,40" {
		t.Errorf("rows = %q, %q", lines[1], lines[2])
	}
}

func TestWriteCSVRejectsMismatchedGrids(t *testing.T) {
	series := []Series{
		{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Label: "b", X: []float64{1, 3}, Y: []float64{30, 40}},
	}
	var b strings.Builder
	if err := WriteCSV(&b, "u", series); err == nil {
		t.Error("mismatched grids accepted")
	}
}

func TestCSVEscape(t *testing.T) {
	cases := map[string]string{
		"plain":         "plain",
		"with,comma":    `"with,comma"`,
		`with"quote`:    `"with""quote"`,
		"with\nnewline": "\"with\nnewline\"",
	}
	for in, want := range cases {
		if got := csvEscape(in); got != want {
			t.Errorf("csvEscape(%q) = %q, want %q", in, got, want)
		}
	}
}
