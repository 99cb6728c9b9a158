package harness

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: a titled, column-aligned text
// table the CLI tools print and the benchmarks log.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one row; values are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddOutcomeRow appends a row of the lead cells followed by the tally's
// five outcome shares and its coverage, in percent and in Figure 14's
// column order: the row every by-bit-count outcome table is made of.
func (t *Table) AddOutcomeRow(tal *Tally, lead ...any) {
	t.AddRow(append(lead,
		100*tal.Frac(OutcomeFailure), 100*tal.Frac(OutcomeMasked),
		100*tal.Frac(OutcomeDetectedMasked), 100*tal.Frac(OutcomeDetected),
		100*tal.Frac(OutcomeUndetected), 100*tal.Coverage())...)
}

// Render produces the aligned text form.
func (t *Table) Render() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "### %s\n\n", t.Title)
	}
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	sb.WriteString("\n")
	return sb.String()
}
