package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// hostMeta are the recorded (not gated) facts about the machine a run
// measured on.
func hostMeta() [][2]string {
	return [][2]string{
		{"cores", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"cpu_model", cpuModel()},
		{"l2_size", l2Size()},
		{"go_version", runtime.Version()},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// l2Size reads the per-core unified level-2 cache size from sysfs.
func l2Size() string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(level)) != "2" {
			continue
		}
		if size, err := os.ReadFile(dir + "size"); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

func printMeta(w io.Writer, rows [][2]string) {
	for _, r := range rows {
		fmt.Fprintf(w, "meta %s=%q\n", r[0], r[1])
	}
}
