package export

import (
	"bytes"
	"image/png"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/testfix"
)

func TestGanttPNG(t *testing.T) {
	s := heftSchedule(t)
	var buf bytes.Buffer
	if err := WriteGanttPNG(&buf, s, 640); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("output is not a PNG: %v", err)
	}
	b := img.Bounds()
	if b.Dx() != 640 {
		t.Fatalf("width = %d", b.Dx())
	}
	// 3 processors: 10 + 3*28 + 2*6 + 10 = 116 px tall.
	if b.Dy() != 116 {
		t.Fatalf("height = %d", b.Dy())
	}
	// Some pixels must be colored (not all white/grey): check one known
	// busy location — P0 lane starts at y=12, the earliest task starts at
	// x slightly past the left pad.
	colored := 0
	for x := 0; x < b.Dx(); x++ {
		for y := 0; y < b.Dy(); y++ {
			r, g, bl, _ := img.At(x, y).RGBA()
			if r != g || g != bl { // non-grey pixel
				colored++
			}
		}
	}
	if colored == 0 {
		t.Fatal("no task rectangles rendered")
	}
}

func TestGanttPNGTinyWidthFallsBack(t *testing.T) {
	s := heftSchedule(t)
	var buf bytes.Buffer
	if err := WriteGanttPNG(&buf, s, 5); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 640 {
		t.Fatalf("fallback width = %d", img.Bounds().Dx())
	}
}

func TestGanttPNGWithDuplicates(t *testing.T) {
	s, err := listsched.BTDH{}.Schedule(testfix.Topcuoglu())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGanttPNG(&buf, s, 800); err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(&buf); err != nil {
		t.Fatal(err)
	}
}
