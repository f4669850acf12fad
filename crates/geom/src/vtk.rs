//! Minimal legacy-VTK unstructured grid writer.
//!
//! Each rank writes its own piece (`<base>_<rank>.vtk`); any VTK viewer
//! can load the group. Elements are written as linear quads/hexahedra at
//! their corner positions under the active [`Mapping`], with per-cell
//! scalars (refinement level, owning tree, plus user fields) — enough to
//! reproduce the mesh renderings of the paper's Figs. 1, 6 and 8.

use std::io::Write;
use std::path::Path;

use forust::dim::Dim;
use forust::forest::Forest;

use crate::{octant_ref_coords, Mapping};

/// Write the local part of a forest as a legacy VTK file.
///
/// `cell_fields` are `(name, one value per local element in SFC order)`.
pub fn write_forest_vtk<D: Dim>(
    path: &Path,
    forest: &Forest<D>,
    mapping: &dyn Mapping<D>,
    rank: usize,
    cell_fields: &[(&str, &[f64])],
) -> std::io::Result<()> {
    let n = forest.num_local();
    for (name, vals) in cell_fields {
        assert_eq!(vals.len(), n, "field {name} has wrong length");
    }
    let corners = D::CORNERS;
    let mut out = String::new();
    out.push_str("# vtk DataFile Version 3.0\n");
    out.push_str("forust forest\nASCII\nDATASET UNSTRUCTURED_GRID\n");
    out.push_str(&format!("POINTS {} double\n", n * corners));
    for (t, o) in forest.iter_local() {
        for c in 0..corners {
            let off = D::corner_offset(c);
            let xi = octant_ref_coords(o, [off[0] as f64, off[1] as f64, off[2] as f64]);
            let x = mapping.map(t, xi);
            out.push_str(&format!("{} {} {}\n", x[0], x[1], x[2]));
        }
    }
    out.push_str(&format!("CELLS {} {}\n", n, n * (corners + 1)));
    for e in 0..n {
        out.push_str(&format!("{corners}"));
        // VTK vertex order: quads/hexes want (0,1,3,2) per z-layer.
        let order: &[usize] = if D::DIM == 2 {
            &[0, 1, 3, 2]
        } else {
            &[0, 1, 3, 2, 4, 5, 7, 6]
        };
        for &c in order {
            out.push_str(&format!(" {}", e * corners + c));
        }
        out.push('\n');
    }
    out.push_str(&format!("CELL_TYPES {n}\n"));
    let ct = if D::DIM == 2 { 9 } else { 12 }; // VTK_QUAD / VTK_HEXAHEDRON
    for _ in 0..n {
        out.push_str(&format!("{ct}\n"));
    }
    out.push_str(&format!("CELL_DATA {n}\n"));
    out.push_str("SCALARS level double 1\nLOOKUP_TABLE default\n");
    for (_, o) in forest.iter_local() {
        out.push_str(&format!("{}\n", o.level));
    }
    out.push_str("SCALARS tree double 1\nLOOKUP_TABLE default\n");
    for (t, _) in forest.iter_local() {
        out.push_str(&format!("{t}\n"));
    }
    out.push_str("SCALARS mpirank double 1\nLOOKUP_TABLE default\n");
    for _ in 0..n {
        out.push_str(&format!("{rank}\n"));
    }
    for (name, vals) in cell_fields {
        out.push_str(&format!("SCALARS {name} double 1\nLOOKUP_TABLE default\n"));
        for v in *vals {
            out.push_str(&format!("{v}\n"));
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatticeMap;
    use forust::connectivity::builders;
    use forust::dim::D2;
    use forust_comm::{run_spmd, Communicator};
    use std::sync::Arc;

    #[test]
    fn writes_parsable_vtk() {
        let conn = Arc::new(builders::moebius());
        let forest = run_spmd(1, |comm| {
            Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1)
        })
        .remove(0);
        let map = LatticeMap::new(conn);
        let dir = std::env::temp_dir().join("forust_vtk_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("moebius_0.vtk");
        let vals: Vec<f64> = (0..forest.num_local()).map(|i| i as f64).collect();
        write_forest_vtk(&path, &forest, &map, 0, &[("idx", &vals)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("DATASET UNSTRUCTURED_GRID"));
        assert!(text.contains(&format!("CELL_TYPES {}", forest.num_local())));
        assert!(text.contains("SCALARS idx double 1"));
        // 20 cells * 4 corners points.
        assert!(text.contains(&format!("POINTS {} double", forest.num_local() * 4)));
    }

    #[test]
    fn each_rank_writes_its_piece() {
        let dir = std::env::temp_dir().join("forust_vtk_pieces");
        std::fs::create_dir_all(&dir).unwrap();
        let dir2 = dir.clone();
        run_spmd(3, move |comm| {
            let conn = Arc::new(builders::unit2d());
            let forest = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 2);
            let map = LatticeMap::new(conn);
            let path = dir2.join(format!("piece_{}.vtk", comm.rank()));
            write_forest_vtk(&path, &forest, &map, comm.rank(), &[]).unwrap();
        });
        for r in 0..3 {
            assert!(dir.join(format!("piece_{r}.vtk")).exists());
        }
    }
}
