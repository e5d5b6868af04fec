package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The written workload set passes -verify, and one flipped byte of the MD5
// input fails it.
func TestWriteThenVerify(t *testing.T) {
	dir := t.TempDir()
	if err := writeAll(dir); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := verifyAll(dir); err != nil {
		t.Fatalf("verify of a fresh workload set: %v", err)
	}

	path := filepath.Join(dir, "md5-input.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := verifyAll(dir); err == nil || !strings.Contains(err.Error(), "md5") {
		t.Fatalf("verify with a flipped MD5 input byte: err = %v, want an md5 error", err)
	}
}
