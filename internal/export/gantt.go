// Package export renders schedules for humans and tools: text, SVG and
// PNG Gantt charts, a JSON archive and a Chrome trace.
package export

import (
	"fmt"
	"io"
	"strings"

	"dagsched/internal/sched"
)

// WriteGanttText renders an ASCII Gantt chart of the schedule, one row per
// processor, width columns wide. Duplicated copies render in parentheses.
func WriteGanttText(w io.Writer, s *sched.Schedule, width int) error {
	if width < 20 {
		width = 80
	}
	ms := s.Makespan()
	if ms == 0 {
		ms = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  makespan=%.4g\n", s.Algorithm(), s.Makespan())
	in := s.Instance()
	scale := float64(width) / ms
	for p := 0; p < in.P(); p++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		labels := make([]string, 0, 4)
		for _, a := range s.OnProc(p) {
			from := int(a.Start * scale)
			to := int(a.Finish * scale)
			if to >= width {
				to = width - 1
			}
			ch := byte('#')
			if a.Dup {
				ch = '+'
			}
			for i := from; i <= to && i < width; i++ {
				row[i] = ch
			}
			name := in.G.Task(a.Task).Name
			if a.Dup {
				name = "(" + name + ")"
			}
			labels = append(labels, fmt.Sprintf("%s@%.4g", name, a.Start))
		}
		fmt.Fprintf(&b, "P%-3d |%s|\n", p, string(row))
		if len(labels) > 0 {
			fmt.Fprintf(&b, "      %s\n", strings.Join(labels, " "))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// svgPalette cycles task colors deterministically by task id.
var svgPalette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// WriteGanttSVG renders the schedule as a self-contained SVG: one lane per
// processor, one rectangle per task copy (duplicates hatched lighter),
// labeled with the task name.
func WriteGanttSVG(w io.Writer, s *sched.Schedule) error {
	const (
		laneH   = 34
		laneGap = 8
		leftPad = 52
		topPad  = 34
		pxPerT  = 9.0
		minW    = 480.0
	)
	in := s.Instance()
	ms := s.Makespan()
	if ms <= 0 {
		ms = 1
	}
	chartW := ms * pxPerT
	if chartW < minW {
		chartW = minW
	}
	scale := chartW / ms
	height := topPad + in.P()*(laneH+laneGap) + 24
	width := int(chartW) + leftPad + 24

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="16" font-size="13">%s — makespan %.4g</text>`+"\n", leftPad, xmlEscape(s.Algorithm()), s.Makespan())
	for p := 0; p < in.P(); p++ {
		y := topPad + p*(laneH+laneGap)
		fmt.Fprintf(&b, `<text x="6" y="%d">P%d</text>`+"\n", y+laneH/2+4, p)
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.1f" height="%d" fill="#f4f4f4"/>`+"\n", leftPad, y, chartW, laneH)
		for _, a := range s.OnProc(p) {
			x := float64(leftPad) + a.Start*scale
			wd := a.Duration() * scale
			if wd < 1 {
				wd = 1
			}
			color := svgPalette[int(a.Task)%len(svgPalette)]
			opacity := "1.0"
			if a.Dup {
				opacity = "0.45"
			}
			name := in.G.Task(a.Task).Name
			fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" fill-opacity="%s" stroke="#333" stroke-width="0.5"><title>%s [%.4g,%.4g) on P%d dup=%v</title></rect>`+"\n",
				x, y+2, wd, laneH-4, color, opacity, xmlEscape(name), a.Start, a.Finish, p, a.Dup)
			if wd > 24 {
				fmt.Fprintf(&b, `<text x="%.1f" y="%d" fill="#fff">%s</text>`+"\n", x+3, y+laneH/2+4, xmlEscape(name))
			}
		}
	}
	// Time axis.
	axisY := topPad + in.P()*(laneH+laneGap) + 12
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%.1f" y2="%d" stroke="#333"/>`+"\n", leftPad, axisY, float64(leftPad)+chartW, axisY)
	step := niceStep(ms)
	for t := 0.0; t <= ms+1e-9; t += step {
		x := float64(leftPad) + t*scale
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#333"/>`+"\n", x, axisY-3, x, axisY+3)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%.4g</text>`+"\n", x, axisY+14, t)
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// niceStep picks a readable axis tick step for a span.
func niceStep(span float64) float64 {
	steps := []float64{1, 2, 5}
	mag := 1.0
	for {
		for _, s := range steps {
			if span/(s*mag) <= 12 {
				return s * mag
			}
		}
		mag *= 10
	}
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
