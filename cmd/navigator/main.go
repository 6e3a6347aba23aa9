// Command navigator is the interactive CLI courseware navigator — the
// student-facing application of chapter 5 with the Windows 95 GUI
// replaced by a read–eval loop over the virtual screen.
//
//	navigator -server 127.0.0.1:7121
//
// Session commands (the sample session of §5.4; the transcript test
// in session_test.go runs it against a real mitsd):
//
//	help                  list the commands
//	register <name>       create a student record and log in
//	login <number>        enter the school with a student number
//	stats                 school totals and enrolments per course
//	programs              list programs
//	courses <program>     list a program's courses
//	intro <code>          describe a course's introduction clip
//	enroll <code>         register for a course
//	start <code>          begin (or resume) the course presentation
//	tick <seconds>        advance presentation time
//	screen                show the virtual screen
//	click <label>         press an on-screen button
//	goto <scene>          jump to a scene
//	bookmark <label>      save the current position
//	library [keyword]     browse the library / search by keyword
//	read <ref>            read a library holding
//	rooms                 list discussion rooms
//	join <room>           enter a discussion room
//	say <room> <text>     post to a discussion room
//	room <room>           read a discussion room
//	boards                list bulletin boards
//	board <name>          read a bulletin board
//	mail <to> <text>      send mail
//	inbox                 read your mailbox
//	exercises <course>    list a course's problem sets
//	take <set>            show a problem set
//	answer <set> p1=0 p2=GCRA   submit answers
//	contest <course>      rank the course's students by best scores
//	exit                  leave the course (stores stop position)
//	quit                  end the session
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"mits"
	"mits/internal/media"
	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/obs/collect"
	"mits/internal/school"
	"mits/internal/transport"
)

func main() {
	server := flag.String("server", "127.0.0.1:7121", "mitsd address")
	conns := flag.Int("conns", transport.DefaultPoolConns, "pooled connections for the courseware database path")
	statsAddr := flag.String("stats", "", "HTTP stats listen address (empty disables the endpoint)")
	exportAddr := flag.String("export", "", "ship finished spans to the trace collector at this address")
	flag.Parse()
	obs.SetSite("navigator") // names this process in its logs, its /metrics header and its exported spans

	// The content cache (and the client-side transport counters) live
	// in this process, so the navigator exposes its own registry —
	// scrape cache_hits_total & co. here, not on the server.
	if *statsAddr != "" {
		stats, err := obs.ServeStats(*statsAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stats listen on %s: %v\n", *statsAddr, err)
			os.Exit(1)
		}
		defer stats.Close()
		fmt.Printf("stats endpoint up at http://%s/metrics\n", stats.Addr)
	}

	// Span export: the navigator's client spans are the student's half
	// of every trace — shipping them to the deployment's collector is
	// what lets a slow request be blamed on the right site.
	if *exportAddr != "" {
		exporter := collect.StartExporter(obs.Default, collect.Dial(*exportAddr))
		defer exporter.Close()
		fmt.Printf("exporting spans to %s\n", *exportAddr)
	}

	// The courseware/content path is where the bandwidth goes (media
	// fetches, streamed clips), so it gets the connection pool; the
	// school path is chatty-but-small and keeps a single conn.
	dbConn, err := transport.DialTCPPool(*server, *conns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cannot reach the TeleSchool at %s: %v\n", *server, err)
		os.Exit(1)
	}
	defer dbConn.Close() //mits:allow errdrop best-effort close on exit
	schoolConn, err := transport.DialTCP(*server)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cannot reach the TeleSchool at %s: %v\n", *server, err)
		os.Exit(1)
	}
	defer schoolConn.Close() //mits:allow errdrop best-effort close on exit

	nav := mits.NewRemoteNavigator(dbConn, schoolConn)
	fmt.Println("Welcome to the MIRL TeleSchool. Type 'help' for commands.")

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("teleschool> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		arg := strings.Join(args, " ")
		var err error
		switch cmd {
		case "help":
			fmt.Println("commands: help register login stats programs courses intro enroll start tick screen click goto bookmark library read rooms join say room boards board mail inbox exercises take answer contest exit quit")
		case "register":
			var num string
			num, err = nav.Register(school.Profile{Name: arg})
			if err == nil {
				fmt.Printf("your student number is %s\n", num)
			}
		case "login":
			if err = nav.Login(arg); err == nil {
				fmt.Println("welcome back")
			}
		case "stats":
			st, serr := nav.SchoolStats()
			err = serr
			if err == nil {
				fmt.Printf("  %d students, %d courses, %d programs; enrollments: %v\n",
					st.Students, st.Courses, st.Programs, st.Enrollments)
			}
		case "programs":
			var progs []string
			if progs, err = nav.Programs(); err == nil {
				for _, p := range progs {
					fmt.Println(" ", p)
				}
			}
		case "courses":
			var courses []school.Course
			if courses, err = nav.CoursesIn(arg); err == nil {
				for _, c := range courses {
					fmt.Printf("  %-8s %-30s %d sessions\n", c.Code, c.Name, c.PlannedSessions)
				}
			}
		case "intro":
			rec, ierr := nav.CourseIntroduction(arg)
			err = ierr
			if err == nil {
				meta, derr := media.Decode(media.Coding(rec.Coding), rec.Data)
				if derr == nil {
					fmt.Printf("  [playing %v introduction clip, %s]\n", meta.Duration, rec.Coding)
				}
			}
		case "enroll":
			if err = nav.Enroll(arg); err == nil {
				fmt.Println("enrolled")
			}
		case "start":
			if err = nav.StartCourse(arg); err == nil {
				scene, _ := nav.CurrentScene()
				fmt.Printf("presentation started in scene %q; scenes: %v\n", scene, nav.Scenes())
				fmt.Print(nav.Screen())
			}
		case "tick":
			secs, perr := strconv.ParseFloat(arg, 64)
			if perr != nil {
				err = fmt.Errorf("tick <seconds>")
				break
			}
			nav.Clock().RunFor(time.Duration(secs * float64(time.Second)))
			scene, at := nav.CurrentScene()
			fmt.Printf("t=%v scene=%q (+%v)\n", nav.Clock().Now(), scene, at.Round(time.Millisecond))
			fmt.Print(nav.Screen())
		case "screen":
			fmt.Print(nav.Screen())
		case "click":
			if err = nav.Click(arg); err == nil {
				fmt.Print(nav.Screen())
			}
		case "goto":
			if err = nav.GotoScene(arg); err == nil {
				fmt.Print(nav.Screen())
			}
		case "bookmark":
			if err = nav.Bookmark(arg); err == nil {
				fmt.Println("bookmarked")
			}
		case "library":
			if arg == "" {
				tree, terr := nav.LibraryTree()
				err = terr
				if err == nil {
					tree.Walk(func(path string, n *mediastore.KeywordNode) {
						if path == "" {
							return
						}
						fmt.Printf("  %-40s %s\n", path, strings.Join(n.Docs, ", "))
					})
				}
			} else {
				var docs []string
				if docs, err = nav.SearchLibrary(arg); err == nil {
					for _, d := range docs {
						fmt.Println(" ", d)
					}
				}
			}
		case "read":
			rec, rerr := nav.ReadLibrary(arg)
			err = rerr
			if err == nil {
				txt, terr := media.TextContent(media.Coding(rec.Coding), rec.Data)
				if terr != nil {
					fmt.Printf("  [%s, %d bytes]\n", rec.Coding, len(rec.Data))
				} else if len(txt) > 400 {
					fmt.Println(txt[:400] + "…")
				} else {
					fmt.Println(txt)
				}
			}
		case "rooms":
			rooms, rerr := nav.Rooms()
			err = rerr
			for _, r := range rooms {
				fmt.Println(" ", r)
			}
		case "join":
			if err = nav.JoinDiscussion(arg); err == nil {
				fmt.Println("joined", arg)
			}
		case "say":
			if len(args) < 2 {
				err = fmt.Errorf("say <room> <text>")
				break
			}
			err = nav.Say(args[0], strings.Join(args[1:], " "))
		case "room":
			msgs, merr := nav.Discussion(arg, 0)
			err = merr
			for _, m := range msgs {
				fmt.Printf("  <%s> %s\n", m.Author, m.Text)
			}
		case "boards":
			boards, berr := nav.Boards()
			err = berr
			for _, b := range boards {
				fmt.Println(" ", b)
			}
		case "board":
			posts, berr := nav.ReadBoard(arg, 0)
			err = berr
			for _, p := range posts {
				fmt.Printf("  [%s] %s — %s\n", p.Author, p.Subject, p.Body)
			}
		case "mail":
			if len(args) < 2 {
				err = fmt.Errorf("mail <to> <text>")
				break
			}
			err = nav.SendMail(args[0], "message", strings.Join(args[1:], " "))
		case "inbox":
			mail, merr := nav.Mailbox()
			err = merr
			for _, m := range mail {
				fmt.Printf("  from %s: %s — %s\n", m.From, m.Subject, m.Body)
			}
		case "exercises":
			sets, serr := nav.Exercises(arg)
			err = serr
			for _, id := range sets {
				fmt.Println(" ", id)
			}
		case "take":
			set, serr := nav.TakeExercise(arg)
			err = serr
			if err == nil {
				fmt.Printf("%s — %s\n", set.ID, set.Title)
				for _, p := range set.Problems {
					fmt.Printf("  %s (%s, %dpt): %s\n", p.ID, p.Kind, p.Points, p.Prompt)
					for i, opt := range p.Options {
						fmt.Printf("      %d) %s\n", i, opt)
					}
				}
			}
		case "answer":
			if len(args) < 2 {
				err = fmt.Errorf("answer <set> p1=... p2=...")
				break
			}
			answers := make(map[string]string)
			for _, kv := range args[1:] {
				if i := strings.IndexByte(kv, '='); i > 0 {
					answers[kv[:i]] = kv[i+1:]
				}
			}
			grade, gerr := nav.SubmitExercise(args[0], answers)
			err = gerr
			if err == nil {
				fmt.Println("  grade:", mits.FormatGrade(grade))
				pids := make([]string, 0, len(grade.Results))
				for pid := range grade.Results {
					pids = append(pids, pid)
				}
				slices.Sort(pids)
				for _, pid := range pids {
					if res := grade.Results[pid]; !res.Correct && res.Feedback != "" {
						fmt.Printf("  %s: %s\n", pid, res.Feedback)
					}
				}
			}
		case "contest":
			ranks, cerr := nav.Contest(arg)
			err = cerr
			for i, s := range ranks {
				fmt.Printf("  %d. %s %d/%d\n", i+1, s.Student, s.Score, s.Max)
			}
		case "exit":
			if err = nav.ExitCourse(); err == nil {
				fmt.Println("stop position stored — see you next session")
			}
		case "quit":
			return
		default:
			err = fmt.Errorf("unknown command %q (try help)", cmd)
		}
		if err != nil {
			fmt.Println("error:", err)
		}
	}
}
