// Command mkworkload materializes the paper's synthetic workloads as real
// files, so they can be inspected, diffed, or fed to external tools; -verify
// re-reads a directory and checks every workload invariant (sizes, planted
// match counts, frame-type fractions, archive structure).
//
//	mkworkload -dir /tmp/workloads
//	mkworkload -dir /tmp/workloads -verify
package main

import (
	"bytes"
	"crypto/md5"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"activesan/internal/apps/grep"
	"activesan/internal/apps/md5app"
	"activesan/internal/apps/mpeg"
	"activesan/internal/apps/tarapp"
)

func main() {
	dir := flag.String("dir", "workloads", "output directory")
	verify := flag.Bool("verify", false, "verify an existing directory instead of writing")
	flag.Parse()

	if *verify {
		if err := verifyAll(*dir); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("all workload invariants hold")
		return
	}
	if err := writeAll(*dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func writeAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, data []byte) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %-24s %9d bytes\n", name, len(data))
		return nil
	}

	if err := write("grep-corpus.txt", grep.BuildCorpus()); err != nil {
		return err
	}
	if err := write("video.mpg", mpeg.BuildStream(mpeg.DefaultParams())); err != nil {
		return err
	}
	if err := write("md5-input.bin", md5app.BuildInput(md5app.DefaultParams())); err != nil {
		return err
	}
	tp := tarapp.DefaultParams()
	for i := 0; i < tp.Files; i++ {
		if err := write(tarapp.FileName(i), tarapp.BuildFile(i, tp.FileSize)); err != nil {
			return err
		}
	}
	return nil
}

func verifyAll(dir string) error {
	read := func(name string) ([]byte, error) {
		return os.ReadFile(filepath.Join(dir, name))
	}

	// Grep: exact size and exactly the planted match count.
	corpus, err := read("grep-corpus.txt")
	if err != nil {
		return err
	}
	if int64(len(corpus)) != grep.FileSize {
		return fmt.Errorf("grep corpus is %d bytes, want %d", len(corpus), grep.FileSize)
	}
	if n := bytes.Count(corpus, []byte(grep.Pattern)); n != grep.Matches {
		return fmt.Errorf("grep corpus has %d matches, want %d", n, grep.Matches)
	}

	// MPEG: exact size and the paper's ~63.5%% P-frame byte fraction.
	mp := mpeg.DefaultParams()
	video, err := read("video.mpg")
	if err != nil {
		return err
	}
	if int64(len(video)) != mp.FileSize {
		return fmt.Errorf("video is %d bytes, want %d", len(video), mp.FileSize)
	}
	frac := float64(mpeg.PBytes(video)) / float64(len(video))
	if frac < 0.61 || frac > 0.66 {
		return fmt.Errorf("P-frame fraction %.3f outside [0.61, 0.66]", frac)
	}

	// MD5: the file's digest matches the generator output's.
	md := md5app.DefaultParams()
	input, err := read("md5-input.bin")
	if err != nil {
		return err
	}
	if md5.Sum(input) != md5.Sum(md5app.BuildInput(md)) {
		return fmt.Errorf("md5 input diverges from the generator")
	}

	// Tar: every input file regenerates identically, and its header
	// verifies.
	tp := tarapp.DefaultParams()
	for i := 0; i < tp.Files; i++ {
		data, err := read(tarapp.FileName(i))
		if err != nil {
			return err
		}
		if !bytes.Equal(data, tarapp.BuildFile(i, tp.FileSize)) {
			return fmt.Errorf("%s diverges from the generator", tarapp.FileName(i))
		}
		hdr := tarapp.Header(tarapp.FileName(i), tp.FileSize)
		if _, size, ok := tarapp.VerifyHeader(hdr); !ok || size != tp.FileSize {
			return fmt.Errorf("%s: header verification failed", tarapp.FileName(i))
		}
	}
	return nil
}
