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

// NewTrajJSON is the one conversion of a trajectory and its optional
// ground-truth route to the shape every trip is written in.
func NewTrajJSON(tr *Trajectory, truth []int) TrajJSON {
	tj := TrajJSON{ID: tr.ID, Truth: truth}
	for _, p := range tr.Points {
		tj.Points = append(tj.Points, [3]float64{p.Pt.X, p.Pt.Y, p.T})
	}
	return tj
}

// WriteArchive serializes trajectories and their optional ground-truth
// routes (keyed by trajectory id; pass nil when unknown).
func WriteArchive(w io.Writer, trajs []*Trajectory, truth map[string][]int) error {
	var aj ArchiveJSON
	for _, tr := range trajs {
		aj.Trajectories = append(aj.Trajectories, NewTrajJSON(tr, truth[tr.ID]))
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
	return readList(r, "archive", "trajectories")
}

// ReadTrips decodes { key: null | [ traj, ... ] } in ReadArchive's grammar,
// without Validate. Errors start with "traj: decode trips:".
func ReadTrips(r io.Reader, key string) ([]*Trajectory, error) {
	trajs, _, err := readList(r, "trips", key)
	return trajs, err
}

// ReadTrip decodes one traj in ReadArchive's grammar, without Validate, and
// returns it with its truth route. A non-empty extra admits one more member
// of that name, an integer read as a truth id is; n is its value, 0 when it
// is absent. Errors start with "traj: decode trip:".
func ReadTrip(r io.Reader, extra string) (tr *Trajectory, truth []int, n int, err error) {
	s, err := scan(r, "trip")
	if err == nil {
		if extra != "" {
			s.keys = append(tripKeys, extra)
		}
		err = s.top(s.trajectory)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	sp := s.trajs[0]
	return &Trajectory{ID: sp.id, Points: s.pts[sp.p0:sp.p1]}, s.ids[sp.t0:sp.t1], s.n, nil
}

// ParsePoint decodes one [x, y, t] in ReadArchive's grammar. Errors start
// with "traj: decode point:".
func ParsePoint(b []byte) (GPSPoint, error) {
	s := archiveScanner{b: b, what: "point", pts: make([]GPSPoint, 0, 1)}
	if err := s.top(s.point); err != nil {
		return GPSPoint{}, err
	}
	return s.pts[0], nil
}

// scan reads r whole into a scanner for the decoder named what.
func scan(r io.Reader, what string) (*archiveScanner, error) {
	// A bytes.Buffer doubles as it reads; io.ReadAll's 1.25× steps would
	// copy a large archive several times over.
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("traj: decode %s: %w", what, err)
	}
	return &archiveScanner{b: buf.Bytes(), what: what, keys: tripKeys}, nil
}

// tripKeys are a trajectory object's keys, numbered as its members are.
var tripKeys = []string{"id", "points", "truth"}

// readList reads r whole as { key: null | [ traj, ... ] } and returns the
// trajectories and their non-empty truth routes.
func readList(r io.Reader, what, key string) ([]*Trajectory, map[string][]int, error) {
	s, err := scan(r, what)
	if err != nil {
		return nil, nil, err
	}
	seen := false
	err = s.top(func() error {
		return s.object(func(k []byte) error {
			if string(k) != key || seen {
				return s.errorf("unexpected key %q", k)
			}
			seen = true
			if s.null() {
				return nil
			}
			return s.list('[', ']', s.trajectory)
		})
	})
	if err != nil {
		return nil, nil, err
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

// archiveScanner is the cursor of every reader of the trip format. Points
// and truth ids of every trajectory append to one array each; a trajSpan
// records which run of them is whose.
type archiveScanner struct {
	b     []byte
	i     int
	what  string   // the decoder's name in errors
	keys  []string // tripKeys, and a trajectory's extra integer member
	n     int      // that member's value
	esc   []byte   // unescaped string scratch
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
	return fmt.Errorf("traj: decode %s: byte %d: %w", s.what, off, err)
}

// top consumes the whole input: one value, scanned by value, and whitespace.
func (s *archiveScanner) top(value func() error) error {
	if err := value(); err != nil {
		return err
	}
	if s.ws(); s.i != len(s.b) {
		return s.errorf("unexpected bytes after the %s", s.what)
	}
	return nil
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

// trajectory consumes one trajectory object, validated in an archive.
func (s *archiveScanner) trajectory() error {
	start := s.i
	sp := trajSpan{p0: len(s.pts), p1: len(s.pts), t0: len(s.ids), t1: len(s.ids)}
	var seen [4]bool
	err := s.object(func(key []byte) error {
		k := -1
		for j, name := range s.keys {
			if string(key) == name {
				k = j
			}
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
		case k == 3:
			var err error
			s.n, err = s.integer()
			return err
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
	if s.what == "archive" {
		tr := Trajectory{ID: sp.id, Points: s.pts[sp.p0:sp.p1]}
		if err := tr.Validate(); err != nil {
			return s.errorAt(start, err)
		}
	}
	s.trajs = append(s.trajs, sp)
	return nil
}

// point consumes one [x, y, t] array onto the point array.
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
	id, err := s.integer()
	s.ids = append(grow(s.ids), id)
	return err
}

// integer consumes one number and converts it as encoding/json converts an
// int, with strconv.ParseInt.
func (s *archiveScanner) integer() (int, error) {
	num, err := s.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(num), 10, 0)
	if err != nil {
		return 0, s.errorf("%w", err)
	}
	return int(n), nil
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
