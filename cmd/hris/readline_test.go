package main

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

// TestReadLineCap: the cap counts every byte of a line, including those of
// the chunk that ends it. A line of exactly max bytes passes; max+1 bytes
// and max+bufsize-1 bytes (the longest line whose final chunk still fits
// the reader's buffer) are rejected, and the line after each still reads.
func TestReadLineCap(t *testing.T) {
	const max, bufsize = 64, 16
	lines := []struct {
		n    int
		want error
	}{
		{max, nil},
		{max + 1, errLineTooLong},
		{max + bufsize - 1, errLineTooLong},
		{max + bufsize, errLineTooLong},
		{3 * max, errLineTooLong},
		{max - 1, nil},
		{0, nil},
	}
	var in strings.Builder
	for _, l := range lines {
		in.WriteString(strings.Repeat("x", l.n) + "\nnext\n")
	}
	br := bufio.NewReaderSize(strings.NewReader(in.String()), bufsize)
	for _, l := range lines {
		got, err := readLine(br, max)
		if err != l.want || err == nil && len(got) != l.n {
			t.Fatalf("%d-byte line: %d bytes, %v; want %v", l.n, len(got), err, l.want)
		}
		if next, err := readLine(br, max); string(next) != "next" || err != nil {
			t.Fatalf("line after a %d-byte one: %q, %v", l.n, next, err)
		}
	}
	if _, err := readLine(br, max); err != io.EOF {
		t.Fatalf("after the last line: %v, want EOF", err)
	}
}
