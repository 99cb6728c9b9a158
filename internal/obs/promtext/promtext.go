// Package promtext is a strict line parser for the Prometheus text
// exposition format (version 0.0.4). The obs registry's conformance
// test round-trips its own exposition through it, and
// `hauberk-report -scrape` (which the monitor smoke runs) parses live
// /metrics scrapes with it, so a malformed escape, an undeclared TYPE, or
// a non-numeric sample fails fast instead of silently confusing a real
// scraper.
//
// It is deliberately stricter than many consumers: metric and label
// names must match the spec grammar, label values must use only the
// three legal escapes (\\, \", \n), every sample's family must have a
// preceding TYPE line, and histogram _bucket series must carry an le
// label with non-decreasing cumulative counts.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed series line.
type Sample struct {
	Name   string            // full series name (may carry _bucket/_sum/_count)
	Labels map[string]string // decoded label values
	Value  float64
}

// Family groups the samples of one metric family.
type Family struct {
	Name    string
	Type    string // counter | gauge | histogram | summary | untyped
	Help    string
	Samples []Sample
}

// Exposition is the parsed document, families in input order.
type Exposition struct {
	Families []Family
	byName   map[string]*Family
}

// Family returns the named family, or nil.
func (e *Exposition) Family(name string) *Family {
	return e.byName[name]
}

// Sample returns the value of the sample with the given series name and
// exact label set (order-insensitive); ok is false when absent.
func (e *Exposition) Sample(family, series string, labels map[string]string) (float64, bool) {
	f := e.byName[family]
	if f == nil {
		return 0, false
	}
	for _, s := range f.Samples {
		if s.Name != series || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Parse reads an exposition document and validates it strictly,
// returning an error naming the offending line.
func Parse(r io.Reader) (*Exposition, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	exp := &Exposition{byName: make(map[string]*Family)}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		var err error
		switch {
		case strings.HasPrefix(line, "# HELP "):
			err = exp.parseHelp(line)
		case strings.HasPrefix(line, "# TYPE "):
			err = exp.parseType(line)
		case strings.HasPrefix(line, "#"):
			// free-form comment: legal, ignored
		default:
			err = exp.parseSample(line)
		}
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promtext: %w", err)
	}
	if err := exp.validateHistograms(); err != nil {
		return nil, err
	}
	return exp, nil
}

func (e *Exposition) family(name string) *Family {
	if f, ok := e.byName[name]; ok {
		return f
	}
	e.Families = append(e.Families, Family{Name: name})
	f := &e.Families[len(e.Families)-1]
	// Families slice may reallocate; re-point every entry.
	e.byName = make(map[string]*Family, len(e.Families))
	for i := range e.Families {
		e.byName[e.Families[i].Name] = &e.Families[i]
	}
	return f
}

func (e *Exposition) parseHelp(line string) error {
	rest := strings.TrimPrefix(line, "# HELP ")
	name, help, _ := strings.Cut(rest, " ")
	if !validMetricName(name) {
		return fmt.Errorf("HELP for invalid metric name %q", name)
	}
	text, err := unescapeHelp(help)
	if err != nil {
		return err
	}
	e.family(name).Help = text
	return nil
}

func (e *Exposition) parseType(line string) error {
	rest := strings.TrimPrefix(line, "# TYPE ")
	name, typ, ok := strings.Cut(rest, " ")
	if !ok {
		return fmt.Errorf("TYPE line missing type: %q", line)
	}
	if !validMetricName(name) {
		return fmt.Errorf("TYPE for invalid metric name %q", name)
	}
	switch typ {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		return fmt.Errorf("unknown metric type %q", typ)
	}
	f := e.family(name)
	if len(f.Samples) > 0 {
		return fmt.Errorf("TYPE for %s after its samples", name)
	}
	if f.Type != "" {
		return fmt.Errorf("duplicate TYPE for %s", name)
	}
	f.Type = typ
	return nil
}

func (e *Exposition) parseSample(line string) error {
	name, rest, err := splitName(line)
	if err != nil {
		return err
	}
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		labels, rest, err = parseLabels(rest)
		if err != nil {
			return err
		}
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp after the value is legal in the format; the obs
	// registry never writes one, and strictness means rejecting what we
	// do not produce.
	valStr, _, hasTS := strings.Cut(rest, " ")
	if hasTS {
		return fmt.Errorf("unexpected timestamp or trailing garbage after value in %q", line)
	}
	v, err := parseValue(valStr)
	if err != nil {
		return fmt.Errorf("bad sample value %q: %w", valStr, err)
	}
	famName := baseFamily(name)
	f := e.byName[famName]
	if f == nil || f.Type == "" {
		return fmt.Errorf("sample %s before a TYPE line for %s", name, famName)
	}
	f.Samples = append(f.Samples, Sample{Name: name, Labels: labels, Value: v})
	return nil
}

// baseFamily strips the histogram/summary sub-series suffixes when the
// bare family has no TYPE of its own.
func baseFamily(series string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(series, suf) {
			return strings.TrimSuffix(series, suf)
		}
	}
	return series
}

// splitName peels the leading metric name off a sample line.
func splitName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", "", fmt.Errorf("sample line does not start with a metric name: %q", line)
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, line[i:], nil
}

// parseLabels decodes a {k="v",...} block, enforcing the escape rules.
func parseLabels(s string) (map[string]string, string, error) {
	out := map[string]string{}
	s = s[1:] // consume '{'
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return out, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("label pair missing '=' near %q", s)
		}
		key := s[:eq]
		if !validLabelName(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s value not quoted near %q", key, s)
		}
		s = s[1:]
		var sb strings.Builder
		i := 0
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("unterminated label value for %s", key)
			}
			c := s[i]
			if c == '"' {
				break
			}
			if c == '\n' {
				return nil, "", fmt.Errorf("raw newline in label value for %s", key)
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("dangling backslash in label value for %s", key)
				}
				switch s[i+1] {
				case '\\':
					sb.WriteByte('\\')
				case '"':
					sb.WriteByte('"')
				case 'n':
					sb.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("invalid escape \\%c in label value for %s", s[i+1], key)
				}
				i += 2
				continue
			}
			sb.WriteByte(c)
			i++
		}
		if _, dup := out[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", key)
		}
		out[key] = sb.String()
		s = s[i+1:]
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return out, s[1:], nil
		}
		return nil, "", fmt.Errorf("expected ',' or '}' after label %s near %q", key, s)
	}
}

func unescapeHelp(s string) (string, error) {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		if i+1 >= len(s) {
			return "", fmt.Errorf("dangling backslash in HELP text")
		}
		switch s[i+1] {
		case '\\':
			sb.WriteByte('\\')
		case 'n':
			sb.WriteByte('\n')
		default:
			return "", fmt.Errorf("invalid escape \\%c in HELP text", s[i+1])
		}
		i++
	}
	return sb.String(), nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	case "":
		return 0, fmt.Errorf("empty value")
	}
	return strconv.ParseFloat(s, 64)
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "__name__" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validateHistograms checks every histogram family for le labels on
// _bucket series, a terminal +Inf bucket, non-decreasing cumulative
// counts per label set, and _count agreeing with the +Inf bucket.
func (e *Exposition) validateHistograms() error {
	for fi := range e.Families {
		f := &e.Families[fi]
		if f.Type != "histogram" {
			continue
		}
		// Group buckets by their non-le label signature.
		type groupState struct {
			les    []float64
			counts []float64
			count  float64
			seen   bool
		}
		groups := map[string]*groupState{}
		sig := func(labels map[string]string) string {
			keys := make([]string, 0, len(labels))
			for k := range labels {
				if k != "le" {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			var sb strings.Builder
			for _, k := range keys {
				sb.WriteString(k)
				sb.WriteByte('=')
				sb.WriteString(labels[k])
				sb.WriteByte(';')
			}
			return sb.String()
		}
		group := func(labels map[string]string) *groupState {
			s := sig(labels)
			g := groups[s]
			if g == nil {
				g = &groupState{}
				groups[s] = g
			}
			return g
		}
		for _, s := range f.Samples {
			switch {
			case strings.HasSuffix(s.Name, "_bucket"):
				leStr, ok := s.Labels["le"]
				if !ok {
					return fmt.Errorf("promtext: histogram %s bucket without le label", f.Name)
				}
				le, err := parseValue(leStr)
				if err != nil {
					return fmt.Errorf("promtext: histogram %s bad le %q: %w", f.Name, leStr, err)
				}
				g := group(s.Labels)
				g.les = append(g.les, le)
				g.counts = append(g.counts, s.Value)
			case strings.HasSuffix(s.Name, "_count"):
				g := group(s.Labels)
				g.count = s.Value
				g.seen = true
			}
		}
		for sig, g := range groups {
			if len(g.les) == 0 {
				return fmt.Errorf("promtext: histogram %s{%s} has no buckets", f.Name, sig)
			}
			if !math.IsInf(g.les[len(g.les)-1], 1) {
				return fmt.Errorf("promtext: histogram %s{%s} missing terminal +Inf bucket", f.Name, sig)
			}
			for i := 1; i < len(g.les); i++ {
				if g.les[i] < g.les[i-1] {
					return fmt.Errorf("promtext: histogram %s{%s} le values not sorted", f.Name, sig)
				}
				if g.counts[i] < g.counts[i-1] {
					return fmt.Errorf("promtext: histogram %s{%s} bucket counts not cumulative", f.Name, sig)
				}
			}
			if g.seen && g.count != g.counts[len(g.counts)-1] {
				return fmt.Errorf("promtext: histogram %s{%s} _count %v != +Inf bucket %v",
					f.Name, sig, g.count, g.counts[len(g.counts)-1])
			}
		}
	}
	return nil
}
