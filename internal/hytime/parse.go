package hytime

import (
	"fmt"
	"strconv"
	"strings"

	"mits/internal/markup"
)

// Parse reads a HyTime document from SGML-flavoured markup.
// Architectural forms are recognized by the `hytime` attribute, with
// conventional element names accepted as defaults (an element named
// `event` needs no explicit form attribute).
func Parse(src []byte) (*Doc, error) {
	root, err := markup.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("hytime: %w", err)
	}
	if form(root) != "hydoc" {
		return nil, fmt.Errorf("hytime: document element <%s> is not a HyDoc", root.Name)
	}
	d := &Doc{
		id:    root.Attr("id"),
		title: root.Attr("title"),
		root:  root,
	}
	var perr error
	root.Walk(func(el *markup.Element) {
		if perr != nil || el == root {
			return
		}
		switch form(el) {
		case "axis":
			d.axes = append(d.axes, axis{
				name:      el.Attr("id"),
				unit:      el.Attr("unit"),
				perSecond: int(el.AttrInt("persecond")),
			})
		case "entity":
			d.entities = append(d.entities, entity{
				id:       el.Attr("id"),
				system:   el.Attr("system"),
				notation: el.Attr("notation"),
				text:     el.Text,
			})
		case "fcs":
			f := &FCS{ID: el.Attr("id"), title: el.Attr("title")}
			if ax := el.Attr("axes"); ax != "" {
				f.axes = strings.Fields(ax)
			}
			for _, evEl := range el.Kids {
				if form(evEl) != "event" {
					continue
				}
				ev := &Event{
					id:     evEl.Attr("id"),
					entity: evEl.Attr("ref"),
					label:  evEl.Attr("label"),
				}
				for _, xEl := range evEl.Children("extent") {
					ev.extents = append(ev.extents, extent{
						axis:  xEl.Attr("axis"),
						start: xEl.AttrInt("start"),
						dur:   xEl.AttrInt("dur"),
					})
				}
				f.events = append(f.events, ev)
			}
			d.FCSs = append(d.FCSs, f)
		case "nameloc":
			d.nameLocs = append(d.nameLocs, nameLoc{id: el.Attr("id"), ref: el.Attr("ref")})
		case "treeloc":
			tl := treeLoc{id: el.Attr("id")}
			for _, part := range strings.Fields(el.Attr("path")) {
				n, err := strconv.Atoi(part)
				if err != nil {
					perr = fmt.Errorf("hytime: treeloc %q has bad path step %q", tl.id, part)
					return
				}
				tl.path = append(tl.path, n)
			}
			d.treeLocs = append(d.treeLocs, tl)
		case "ilink":
			rule := linkRule(el.Attr("rule"))
			if rule == "" {
				rule = ruleUser
			}
			d.Links = append(d.Links, ILink{
				ID:        el.Attr("id"),
				endpoints: strings.Fields(el.Attr("endpoints")),
				rule:      rule,
			})
		case "rendition":
			r := rendition{id: el.Attr("id"), from: el.Attr("from"), to: el.Attr("to")}
			for _, mEl := range el.Children("map") {
				scale := 1.0
				if s := mEl.Attr("scale"); s != "" {
					v, err := strconv.ParseFloat(s, 64)
					if err != nil {
						perr = fmt.Errorf("hytime: rendition %q has bad scale %q", r.id, s)
						return
					}
					scale = v
				}
				r.maps = append(r.maps, axisMap{
					axis:   mEl.Attr("axis"),
					scale:  scale,
					offset: mEl.AttrInt("offset"),
				})
			}
			d.renditions = append(d.renditions, r)
		}
	})
	if perr != nil {
		return nil, perr
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// form reports an element's architectural form: the explicit `hytime`
// attribute, or the element name when it matches a known form.
func form(el *markup.Element) string {
	if f := el.Attr("hytime"); f != "" {
		return strings.ToLower(f)
	}
	switch el.Name {
	case "hydoc", "axis", "entity", "fcs", "event", "nameloc", "treeloc", "ilink", "rendition":
		return el.Name
	}
	return ""
}

// Markup serializes the document back to its interchange form (used by
// authoring tools and the E21 experiment to measure document sizes).
func (d *Doc) Markup() []byte {
	root := markup.New("hydoc").Set("id", d.id).Set("title", d.title)
	axes := markup.New("axes")
	for _, a := range d.axes {
		axes.Add(markup.New("axis").Set("id", a.name).Set("unit", a.unit).SetInt("persecond", int64(a.perSecond)))
	}
	root.Add(axes)
	for _, e := range d.entities {
		el := markup.New("entity").Set("id", e.id).Set("system", e.system).Set("notation", e.notation)
		el.Text = e.text
		root.Add(el)
	}
	for _, f := range d.FCSs {
		fEl := markup.New("fcs").Set("id", f.ID).Set("title", f.title).Set("axes", strings.Join(f.axes, " "))
		for _, ev := range f.events {
			evEl := markup.New("event").Set("id", ev.id).Set("ref", ev.entity).Set("label", ev.label)
			for _, x := range ev.extents {
				evEl.Add(markup.New("extent").Set("axis", x.axis).SetInt("start", x.start).SetInt("dur", x.dur))
			}
			fEl.Add(evEl)
		}
		root.Add(fEl)
	}
	for _, n := range d.nameLocs {
		root.Add(markup.New("nameloc").Set("id", n.id).Set("ref", n.ref))
	}
	for _, tl := range d.treeLocs {
		parts := make([]string, len(tl.path))
		for i, p := range tl.path {
			parts[i] = strconv.Itoa(p)
		}
		root.Add(markup.New("treeloc").Set("id", tl.id).Set("path", strings.Join(parts, " ")))
	}
	for _, l := range d.Links {
		root.Add(markup.New("ilink").Set("id", l.ID).
			Set("endpoints", strings.Join(l.endpoints, " ")).Set("rule", string(l.rule)))
	}
	for _, r := range d.renditions {
		rEl := markup.New("rendition").Set("id", r.id).Set("from", r.from).Set("to", r.to)
		for _, m := range r.maps {
			mEl := markup.New("map").Set("axis", m.axis).SetInt("offset", m.offset)
			mEl.Set("scale", strconv.FormatFloat(m.scale, 'g', -1, 64))
			rEl.Add(mEl)
		}
		root.Add(rEl)
	}
	return []byte(root.String())
}
