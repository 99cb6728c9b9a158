package store

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// appendRecord appends r's log line, without the newline, to dst: the
// bytes json.Marshal(r) writes — Record's field order, its omitempty
// flags and encoding/json's string escaping — so the log format has one
// definition, Record's struct tags, and FuzzRecordCodec holds this
// encoder to it.
func appendRecord(dst []byte, r Record) []byte {
	dst = append(dst, `{"idx":`...)
	dst = strconv.AppendInt(dst, int64(r.Idx), 10)
	dst = append(dst, `,"id":`...)
	dst = appendString(dst, r.ID)
	dst = append(dst, `,"outcome":`...)
	dst = strconv.AppendInt(dst, int64(r.Outcome), 10)
	if r.Hang {
		dst = append(dst, `,"hang":true`...)
	}
	if r.Activated {
		dst = append(dst, `,"activated":true`...)
	}
	dst = append(dst, `,"bits":`...)
	dst = strconv.AppendInt(dst, int64(r.Bits), 10)
	dst = append(dst, `,"class":`...)
	dst = strconv.AppendInt(dst, int64(r.Class), 10)
	if r.TimedOut {
		dst = append(dst, `,"timed_out":true`...)
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped the way json.Marshal
// escapes it: HTML-safe, invalid UTF-8 as U+FFFD, and U+2028/U+2029
// escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decodeRecord decodes one log line. Its fast path reads what
// appendRecord writes, in any key order and with any whitespace; a line
// it does not fully understand — an unknown, escaped or differently-cased
// key (a "retries" field of an older log), a value of another type, an
// escaped or non-ASCII ID, a torn tail — goes to json.Unmarshal, whose
// verdict stands. FuzzRecordCodec holds the two to the same result.
func decodeRecord(line []byte) (Record, error) {
	if r, ok := scanRecord(line); ok {
		return r, nil
	}
	var r Record
	err := json.Unmarshal(line, &r)
	return r, err
}

// scanRecord is decodeRecord's fast path; ok is false when it cannot
// decide the line.
func scanRecord(line []byte) (r Record, ok bool) {
	s := scanner{b: line}
	s.space()
	if !s.next('{') {
		return r, false
	}
	s.space()
	if s.next('}') {
		return r, s.end()
	}
	for {
		key, ok := s.plainString()
		if !ok {
			return r, false
		}
		s.space()
		if !s.next(':') {
			return r, false
		}
		s.space()
		switch string(key) {
		case "idx":
			r.Idx, ok = s.int()
		case "id":
			var id []byte
			if id, ok = s.plainString(); ok {
				r.ID = string(id)
			}
		case "outcome":
			r.Outcome, ok = s.int()
		case "hang":
			r.Hang, ok = s.bool()
		case "activated":
			r.Activated, ok = s.bool()
		case "bits":
			r.Bits, ok = s.int()
		case "class":
			r.Class, ok = s.int()
		case "timed_out":
			r.TimedOut, ok = s.bool()
		default:
			return r, false
		}
		if !ok {
			return r, false
		}
		s.space()
		if s.next('}') {
			return r, s.end()
		}
		if !s.next(',') {
			return r, false
		}
		s.space()
	}
}

// scanner walks a line for scanRecord.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\r' || s.b[s.i] == '\n') {
		s.i++
	}
}

// next consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// plainString consumes a string of printable ASCII without escapes and
// returns its contents.
func (s *scanner) plainString() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			str := s.b[s.i:j]
			s.i = j + 1
			return str, true
		case c < ' ' || c >= utf8.RuneSelf || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// maxIntDigits is the most digits of an integer no int overflows on.
const maxIntDigits = strconv.IntSize / 32 * 9

// int consumes an integer of at most maxIntDigits digits with no fraction
// or exponent; what follows it is the caller's to check.
func (s *scanner) int() (int, bool) {
	neg := s.next('-')
	j := s.i
	for j < len(s.b) && s.b[j] >= '0' && s.b[j] <= '9' {
		j++
	}
	digits := s.b[s.i:j]
	if len(digits) == 0 || len(digits) > maxIntDigits || (digits[0] == '0' && len(digits) > 1) {
		return 0, false
	}
	n := 0
	for _, d := range digits {
		n = n*10 + int(d-'0')
	}
	s.i = j
	if neg {
		n = -n
	}
	return n, true
}

// bool consumes true or false.
func (s *scanner) bool() (bool, bool) {
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}
