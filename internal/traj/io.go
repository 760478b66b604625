package traj

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/geo"
)

// ArchiveJSON is the on-disk interchange format for trajectory archives,
// shared by cmd/gendata and cmd/hris: each trajectory is an id, a list of
// [x, y, t] samples and an optional ground-truth route (segment ids).
type ArchiveJSON struct {
	Trajectories []TrajJSON `json:"trajectories"`
}

// TrajJSON is one serialized trajectory.
type TrajJSON struct {
	ID     string       `json:"id"`
	Points [][3]float64 `json:"points"`
	Truth  []int        `json:"truth,omitempty"`
}

// WriteArchive serializes trajectories and their optional ground-truth
// routes (keyed by trajectory id; pass nil when unknown).
func WriteArchive(w io.Writer, trajs []*Trajectory, truth map[string][]int) error {
	var aj ArchiveJSON
	for _, tr := range trajs {
		tj := TrajJSON{ID: tr.ID}
		for _, p := range tr.Points {
			tj.Points = append(tj.Points, [3]float64{p.Pt.X, p.Pt.Y, p.T})
		}
		if truth != nil {
			tj.Truth = truth[tr.ID]
		}
		aj.Trajectories = append(aj.Trajectories, tj)
	}
	return json.NewEncoder(w).Encode(aj)
}

// ReadArchive decodes an archive written by WriteArchive, returning the
// trajectories and the ground-truth map (empty entries omitted).
//
// It scans the bytes for the archive's one shape, the JSON of ArchiveJSON:
//
//	archive = { "trajectories": null | [ traj, ... ] }
//	traj    = { "id": string, "points": null | [ [x, y, t], ... ], "truth": null | [ int, ... ] }
//
// Keys come in any order and any of them may be left out; JSON whitespace
// may separate any two tokens; strings take every JSON escape, with an
// unpaired surrogate read as U+FFFD. A number must match the JSON number
// grammar and is then converted as encoding/json converts it, with
// strconv.ParseFloat, or strconv.ParseInt for a truth id. So NaN, Inf, hex
// floats, a leading '+' or '.', a trailing '.', a literal that overflows
// and a truth id written with a fraction or an exponent are all rejected.
// Every trajectory must pass Validate. An error starts with "traj: decode
// archive:" and names the byte offset where decoding stopped.
//
// Whenever ReadArchive accepts an input, json.Unmarshal into ArchiveJSON
// accepts it too and yields the same trajectories and truth map. The
// converse fails only on input WriteArchive never writes; there
// ReadArchive rejects where encoding/json accepts:
//   - a key other than the three above, including one that matches only
//     when case is ignored;
//   - a repeated key;
//   - null anywhere but as the value of "trajectories", "points" or
//     "truth";
//   - a point that is not exactly three numbers;
//   - invalid UTF-8 in an id;
//   - anything but whitespace after the top-level object.
func ReadArchive(r io.Reader) ([]*Trajectory, map[string][]int, error) {
	// A bytes.Buffer doubles as it reads; io.ReadAll's 1.25× steps would
	// copy a large archive several times over.
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, nil, fmt.Errorf("traj: decode archive: %w", err)
	}
	b := buf.Bytes()
	s := archiveScanner{b: b}
	seen := false
	err := s.object(func(key []byte) error {
		if string(key) != "trajectories" || seen {
			return s.errorf("unexpected key %q", key)
		}
		seen = true
		if s.null() {
			return nil
		}
		return s.list('[', ']', s.trajectory)
	})
	if err != nil {
		return nil, nil, err
	}
	if s.ws(); s.i != len(b) {
		return nil, nil, s.errorf("unexpected bytes after the archive")
	}

	// Trajectories and truth routes share two backing arrays, each slice
	// capped at its own length so an append by one never writes another's.
	var trajs []*Trajectory
	block := make([]Trajectory, len(s.trajs))
	truth := make(map[string][]int)
	for k, sp := range s.trajs {
		block[k].ID = sp.id
		if sp.p1 > sp.p0 {
			block[k].Points = s.pts[sp.p0:sp.p1:sp.p1]
		}
		trajs = append(trajs, &block[k])
		if sp.t1 > sp.t0 {
			truth[sp.id] = s.ids[sp.t0:sp.t1:sp.t1]
		}
	}
	return trajs, truth, nil
}

// archiveScanner is ReadArchive's cursor over the archive bytes. Points and
// truth ids of every trajectory append to one array each; a trajSpan
// records which run of them is whose.
type archiveScanner struct {
	b     []byte
	i     int
	esc   []byte // unescaped string scratch
	pts   []GPSPoint
	ids   []int
	trajs []trajSpan
}

type trajSpan struct {
	id             string
	p0, p1, t0, t1 int
}

func (s *archiveScanner) errorf(format string, args ...any) error {
	return s.errorAt(s.i, fmt.Errorf(format, args...))
}

func (s *archiveScanner) errorAt(off int, err error) error {
	return fmt.Errorf("traj: decode archive: byte %d: %w", off, err)
}

// ws skips JSON whitespace.
func (s *archiveScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and reports whether c comes next.
func (s *archiveScanner) next(c byte) bool {
	s.ws()
	return s.i < len(s.b) && s.b[s.i] == c
}

// expect skips whitespace and consumes c.
func (s *archiveScanner) expect(c byte) error {
	if !s.next(c) {
		return s.errorf("want %q", c)
	}
	s.i++
	return nil
}

// null consumes a null literal if one comes next.
func (s *archiveScanner) null() bool {
	if s.next('n') && len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	return false
}

// list consumes open, elements separated by commas, and close, scanning
// each element with elem.
func (s *archiveScanner) list(open, close byte, elem func() error) error {
	if err := s.expect(open); err != nil {
		return err
	}
	if s.next(close) {
		s.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if s.next(',') {
			s.i++
			continue
		}
		return s.expect(close)
	}
}

// object consumes an object, calling member with each key once its colon
// is consumed. The key is valid until member scans another string.
func (s *archiveScanner) object(member func(key []byte) error) error {
	return s.list('{', '}', func() error {
		key, err := s.str()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		return member(key)
	})
}

// trajectory consumes one trajectory object and validates it.
func (s *archiveScanner) trajectory() error {
	start := s.i
	sp := trajSpan{p0: len(s.pts), p1: len(s.pts), t0: len(s.ids), t1: len(s.ids)}
	var seen [3]bool
	err := s.object(func(key []byte) error {
		k := -1
		switch string(key) {
		case "id":
			k = 0
		case "points":
			k = 1
		case "truth":
			k = 2
		}
		if k < 0 || seen[k] {
			return s.errorf("unexpected key %q", key)
		}
		seen[k] = true
		switch {
		case k == 0:
			id, err := s.str()
			if err != nil {
				return err
			}
			if !utf8.Valid(id) {
				return s.errorf("invalid UTF-8 in id")
			}
			sp.id = string(id)
		case s.null():
		case k == 1:
			if err := s.list('[', ']', s.point); err != nil {
				return err
			}
			sp.p1 = len(s.pts)
		default:
			if err := s.list('[', ']', s.truthID); err != nil {
				return err
			}
			sp.t1 = len(s.ids)
		}
		return nil
	})
	if err != nil {
		return err
	}
	tr := Trajectory{ID: sp.id, Points: s.pts[sp.p0:sp.p1]}
	if err := tr.Validate(); err != nil {
		return s.errorAt(start, err)
	}
	s.trajs = append(s.trajs, sp)
	return nil
}

// point consumes one [x, y, t] array.
func (s *archiveScanner) point() error {
	var p [3]float64
	if err := s.expect('['); err != nil {
		return err
	}
	for k := range p {
		if k > 0 {
			if err := s.expect(','); err != nil {
				return err
			}
		}
		num, err := s.number()
		if err != nil {
			return err
		}
		if p[k], err = strconv.ParseFloat(string(num), 64); err != nil {
			return s.errorf("%w", err)
		}
	}
	if err := s.expect(']'); err != nil {
		return err
	}
	s.pts = append(grow(s.pts), GPSPoint{Pt: geo.Pt(p[0], p[1]), T: p[2]})
	return nil
}

// grow doubles a full slice's capacity, where append's 1.25× steps would
// copy the archive-wide point and id arrays several times over.
func grow[E any](s []E) []E {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, len(s)+1)
}

// truthID consumes one integer segment id.
func (s *archiveScanner) truthID() error {
	num, err := s.number()
	if err != nil {
		return err
	}
	id, err := strconv.ParseInt(string(num), 10, 0)
	if err != nil {
		return s.errorf("%w", err)
	}
	s.ids = append(grow(s.ids), int(id))
	return nil
}

// number consumes one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (s *archiveScanner) number() ([]byte, error) {
	s.ws()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		s.i = i
		return nil, s.errorf("want a number")
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			s.i = i
			return nil, s.errorf("want a digit after '.'")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			s.i = i
			return nil, s.errorf("want a digit in the exponent")
		}
		i = j
	}
	s.i = i
	return b[start:i], nil
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// str consumes one JSON string and returns its unescaped bytes. They alias
// the input, or the scanner's scratch when the string holds escapes, so they
// are valid until the next call.
func (s *archiveScanner) str() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	b, start := s.b, s.i
	i := start
	for i < len(b) && b[i] != '"' && b[i] != '\\' && b[i] >= 0x20 {
		i++
	}
	if i < len(b) && b[i] == '"' {
		s.i = i + 1
		return b[start:i], nil
	}
	out := append(s.esc[:0], b[start:i]...)
	for {
		s.i = i
		switch {
		case i >= len(b):
			return nil, s.errorf("unterminated string")
		case b[i] == '"':
			s.i, s.esc = i+1, out
			return out, nil
		case b[i] < 0x20:
			return nil, s.errorf("control character in string")
		case b[i] != '\\':
			out = append(out, b[i])
			i++
			continue
		case i+1 >= len(b):
			return nil, s.errorf("unterminated string")
		}
		switch c := b[i+1]; c {
		case '"', '\\', '/':
			out = append(out, c)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := hex4(b[i:])
			if r < 0 {
				return nil, s.errorf("invalid \\u escape")
			}
			i += 4
			// A surrogate pairs with a \u escape right after it, as in
			// encoding/json; an unpaired one reads as U+FFFD.
			if utf16.IsSurrogate(r) {
				r = utf16.DecodeRune(r, hex4(b[i+2:]))
				if r != utf8.RuneError {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			return nil, s.errorf("invalid escape \\%c", c)
		}
		i += 2
	}
}

// hex4 decodes the \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
