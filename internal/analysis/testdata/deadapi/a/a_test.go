package a

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 {
		t.Fatal("TestOnly")
	}
}

type depther interface{ Depth() int }

var _ depther = T{}
