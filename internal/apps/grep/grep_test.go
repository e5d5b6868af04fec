package grep

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"activesan/internal/apps"
)

func TestDFAFindsPattern(t *testing.T) {
	d := BuildDFA("abc")
	s := NewScanner(d)
	s.Feed([]byte("xxabcxx\nnoabmatch\nabc\n"))
	s.Flush()
	if len(s.Lines) != 2 {
		t.Fatalf("matched %d lines, want 2", len(s.Lines))
	}
	if string(s.Lines[0]) != "xxabcxx" || string(s.Lines[1]) != "abc" {
		t.Fatalf("lines = %q", s.Lines)
	}
}

func TestDFAOverlap(t *testing.T) {
	// Self-overlapping pattern must be found across restarts.
	d := BuildDFA("aaa")
	s := NewScanner(d)
	s.Feed([]byte("aaaa\n"))
	s.Flush()
	if len(s.Lines) != 1 {
		t.Fatalf("matched %d lines, want 1", len(s.Lines))
	}
}

func TestDFASplitAcrossFeeds(t *testing.T) {
	// The pattern straddles chunk boundaries — the streaming case the
	// switch handler depends on.
	d := BuildDFA("Big Red Bear")
	s := NewScanner(d)
	s.Feed([]byte("junk Big R"))
	s.Feed([]byte("ed Bear tail\n"))
	s.Flush()
	if len(s.Lines) != 1 {
		t.Fatalf("split feed matched %d lines, want 1", len(s.Lines))
	}
}

func TestDFAAgreesWithLineContains(t *testing.T) {
	// Property: on arbitrary small-alphabet corpora, where self-overlapping
	// patterns keep falling back, the DFA scanner reports exactly the lines
	// that contain the pattern.
	f := func(raw []byte, pat uint8) bool {
		corpus := make([]byte, len(raw))
		for i, b := range raw {
			if b%17 == 0 {
				corpus[i] = '\n'
			} else {
				corpus[i] = 'a' + b%4
			}
		}
		pattern := []string{"ab", "aba", "bba", "abab"}[pat%4]
		s := NewScanner(BuildDFA(pattern))
		s.Feed(corpus)
		s.Flush()
		var want [][]byte
		for _, line := range bytes.Split(corpus, []byte{'\n'}) {
			if bytes.Contains(line, []byte(pattern)) {
				want = append(want, line)
			}
		}
		if len(s.Lines) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(s.Lines[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCorpusHasExactMatches(t *testing.T) {
	prm := DefaultParams()
	c := BuildCorpus(prm)
	if int64(len(c)) != prm.FileSize {
		t.Fatalf("corpus size = %d, want %d", len(c), prm.FileSize)
	}
	if n := bytes.Count(c, []byte(prm.Pattern)); n != prm.Matches {
		t.Fatalf("corpus contains %d matches, want %d", n, prm.Matches)
	}
	// Matched lines must each contain the pattern exactly once.
	s := NewScanner(BuildDFA(prm.Pattern))
	s.Feed(c)
	s.Flush()
	if len(s.Lines) != prm.Matches {
		t.Fatalf("scanner found %d lines, want %d", len(s.Lines), prm.Matches)
	}
	for _, l := range s.Lines {
		if !strings.Contains(string(l), prm.Pattern) {
			t.Fatalf("matched line lacks pattern: %q", l)
		}
	}
}

// The corpus buffer is sized to FileSize plus one maximal line, so it is
// allocated once: its spare capacity stays under one line, where a buffer
// of FileSize alone doubles when the last line overshoots it.
func TestCorpusSizedExactly(t *testing.T) {
	prm := DefaultParams()
	c := BuildCorpus(prm)
	if spare, line := cap(c)-len(c), maxLineLen(prm.Pattern); spare >= line {
		t.Fatalf("%d-byte corpus has %d bytes of spare capacity, want fewer than one %d-byte line",
			len(c), spare, line)
	}
}

func TestRunFindsMatchesInAllConfigs(t *testing.T) {
	prm := DefaultParams()
	for _, cfg := range apps.AllConfigs {
		run := Run(cfg, prm)
		if got := run.Extra["matches"]; got != prm.Matches {
			t.Errorf("%s: matches = %v, want %d", cfg, got, prm.Matches)
		}
		if run.Time <= 0 {
			t.Errorf("%s: no time elapsed", cfg)
		}
	}
}

func TestShapeGrep(t *testing.T) {
	// Paper Figure 9: active beats normal; normal+pref between active and
	// active+pref; active+pref best; active traffic is tiny.
	res := RunAll(DefaultParams())
	normal := res.Baseline()
	np, _ := res.Run("normal+pref")
	a, _ := res.Run("active")
	ap, _ := res.Run("active+pref")
	if !(a.Time < normal.Time) {
		t.Errorf("active (%v) not faster than normal (%v)", a.Time, normal.Time)
	}
	if !(np.Time < a.Time) {
		t.Errorf("normal+pref (%v) should beat active (%v) per the paper", np.Time, a.Time)
	}
	if !(ap.Time <= np.Time) {
		t.Errorf("active+pref (%v) should be best (normal+pref %v)", ap.Time, np.Time)
	}
	if a.Traffic > normal.Traffic/50 {
		t.Errorf("active traffic %d not a tiny fraction of normal %d", a.Traffic, normal.Traffic)
	}
	// Host utilization in the active cases is near zero.
	if a.HostUtil() > 0.3*normal.HostUtil() {
		t.Errorf("active host util %.3f vs normal %.3f: not close to 0", a.HostUtil(), normal.HostUtil())
	}
}
